// Command tglint runs TailGuard's custom determinism and concurrency
// analyzers (see internal/checks) over the module containing the working
// directory:
//
//	tglint ./...
//
// It type-checks every package from source and prints one
// `file:line:col: message [analyzer]` line per finding to stderr. Exit
// status is 1 when any finding is reported, 2 on usage or load errors,
// 0 otherwise.
package main

import "os"

func main() {
	os.Exit(runStandalone(os.Args[1:], os.Stderr))
}
