// Command cachemindlint is the repository's invariant linter: five
// static-analysis passes (noalloc, determinism, ctxflow, lockscope,
// wirecodes — see internal/lint) compiled into a `go vet -vettool=`
// compatible binary.
//
// Usage (what `make lint` runs):
//
//	go build -o bin/cachemindlint ./cmd/cachemindlint
//	go vet -vettool=bin/cachemindlint ./...
package main

import (
	"os"

	"cachemind/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:]))
}
