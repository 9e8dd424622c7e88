// Package xtest is a loader fixture: an external test package that uses
// a hook from an in-package export_test.go file.
package xtest

// T is passed between this package and xtestdep.
type T struct{ n int }

func count() int { return 1 }
