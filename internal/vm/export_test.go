package vm

// CodeSlots returns the dense slot counts of the code cache and the
// block cache, for the tests that pin both to the loaded code's size.
func CodeSlots(m *Machine) (cache, blocks int) { return len(m.cacheArr), len(m.blockArr) }
