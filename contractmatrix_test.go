package thermalsched_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	testName   = regexp.MustCompile(`^(Test|Fuzz)`)
)

// TestContractMatrixNamesExistingTests checks TESTING.md's contract matrix:
// each row's package directory must declare, in its _test.go files, every
// Test…/Fuzz… function the row names. A renamed or deleted test
// then cannot leave a contract pinned by nothing, and an emptied matrix
// fails too.
func TestContractMatrixNamesExistingTests(t *testing.T) {
	raw, err := os.ReadFile("TESTING.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]map[string]bool{}
	rows := 0
	for i, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") ||
			len(cells) != 3 || strings.TrimSpace(cells[0]) == "Contract" {
			continue
		}
		rows++
		row := fmt.Sprintf("TESTING.md:%d %q", i+1, strings.TrimSpace(cells[0]))
		dir := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if funcs[dir] == nil {
			funcs[dir] = testFuncs(t, dir)
		}
		names := backticked.FindAllStringSubmatch(cells[2], -1)
		if len(names) == 0 {
			t.Errorf("%s names no test", row)
		}
		for _, m := range names {
			if !funcs[dir][m[1]] {
				t.Errorf("%s: no %s in %s/*_test.go", row, m[1], dir)
			}
		}
	}
	if rows == 0 {
		t.Fatal("TESTING.md has no contract matrix rows")
	}
}

// testFuncs returns the names of the top-level Test and Fuzz functions
// declared in dir's _test.go files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}
