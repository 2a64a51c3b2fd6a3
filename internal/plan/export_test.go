package plan

// RandWorkload and CapacityFor let the external test package (the one that
// may import the emulator) draw the same random workloads the property tests
// do.
var (
	RandWorkload = randWorkload
	CapacityFor  = capacityFor
	WithoutProc  = withoutProc
)
