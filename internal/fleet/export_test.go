package fleet

// The fixtures of manager_test.go, for the external tests that also need
// the serving layer (which imports this package).
var (
	ThinFleet   = thinFleet
	TestFleet   = testFleet
	WriteWindow = writeWindow
)
