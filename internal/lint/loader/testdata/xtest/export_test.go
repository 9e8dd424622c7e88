package xtest

// Count exposes count to the external test package only.
func Count() int { return count() }
