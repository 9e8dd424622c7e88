// Package xtestdep is a loader fixture that depends on xtest.
package xtestdep

import "repro/internal/lint/loader/testdata/xtest"

// N takes an xtest type, so an external test of xtest passing one in
// type-checks only if both see the same xtest package.
func N(xtest.T) int { return 1 }
