// Command printversion prints runcache.CodeVersion on stdout and a
// link-time stamp on stderr; TestCodeVersionTracksBuild builds it with
// different -ldflags -X values to get two otherwise identical builds.
package main

import (
	"fmt"
	"os"

	"repro/internal/runcache"
)

var stamp = "unset"

func main() {
	fmt.Println(runcache.CodeVersion())
	fmt.Fprintln(os.Stderr, stamp)
}
