package xtest_test

import (
	"testing"

	"repro/internal/lint/loader/testdata/xtest"
	"repro/internal/lint/loader/testdata/xtestdep"
)

func TestCount(t *testing.T) {
	if xtest.Count()+xtestdep.N(xtest.T{}) != 2 {
		t.Fatal("count")
	}
}
