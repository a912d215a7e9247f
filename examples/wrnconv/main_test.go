package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestRunOutputDigest runs the example and pins a SHA-256 of what it prints:
// every number in it comes from seeded data and a deterministic run, so a
// change that moves any printed digit, or an API change that stops the
// example building, fails here.
func TestRunOutputDigest(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = "35ca5161988364704096e10223bd58c6deb858e90e061d694fb19ebf1d0638e4"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("output digest %s, want %s; output:\n%s", got, want, out.String())
	}
}
