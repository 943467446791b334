package oraclestore

// Hooks for the external oraclestore_test package. Its fault tests arm a
// faultfs.FaultFS, and faultfs imports this package, so those tests cannot
// live in it; they reach the in-package helpers through these names.
var (
	AlphaDesc     = alphaDesc
	OpenTestLog   = openTestLog
	SyntheticDesc = syntheticDesc
	FillSynthetic = fillSynthetic
	StampAges     = stampAges
	TempsFor      = tempsFor
)

// Appended returns how many records this handle has written to disk.
func (c *SystemCache) Appended() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.appended
}

// Path returns the record file path.
func (c *SystemCache) Path() string { return c.log.path }
