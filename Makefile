# TailGuard build and verification targets. `make ci` is exactly what the
# GitHub workflow runs, step for step; TestCIMatchesMake (ci_test.go)
# fails when the two drift apart.

GO ?= go
TGLINT := bin/tglint

.PHONY: all build lint vet fmt test race ci clean

all: build

build:
	$(GO) build ./...

$(TGLINT): $(shell find tools/tglint -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $(TGLINT) ./tools/tglint

# lint runs the tglint analyzer suite over the whole module, tests
# included; any finding fails the target.
lint: $(TGLINT)
	./$(TGLINT) ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every test at 1, 2 and 4 procs: a core-count-dependent failure (the
# nil-pool panic in internal/parallel only fired with >= 2) cannot hide
# behind a single GOMAXPROCS, or behind the test cache of another one.
# The end-to-end checks of the binaries (tgsim -obs and -faults with
# their trace and exposition validated, tgsim -exp flashcrowd -control,
# tgd's daemon/worker/producer round trip, the sharded-core equivalence
# gate) are tests in this run.
test:
	$(GO) test -cpu 1,2,4 ./...

race:
	$(GO) test -race ./...

ci: build fmt vet lint test race

clean:
	rm -rf bin
