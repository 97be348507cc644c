package cache

// Every hierarchy built in this test binary — including the ones inside
// machines built by bound_test.go — rejects physical addresses at or
// above PhysMemBytes.
func init() { armBound = true }
