package faultfs

import (
	"syscall"
	"testing"
)

// TestInjectRejectsUnnamedOp: a Fault whose Op is unset (or out of range)
// names no operation, so Inject must refuse it rather than arm a rule that
// silently matches some other operation.
func TestInjectRejectsUnnamedOp(t *testing.T) {
	for _, op := range []FaultOp{0, OpChtimes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inject(Op: %d) did not panic", op)
				}
			}()
			New(nil).Inject(Fault{Op: op, Err: syscall.EIO})
		}()
	}
}
