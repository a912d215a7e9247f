package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestRunOutputDigest runs the example and pins a SHA-256 of what it prints,
// less the line that names its temporary checkpoint directory, which differs
// on every run. Everything else comes from seeded data and a deterministic
// run, so a change that moves any printed digit, or breaks the resume the
// example checks bit for bit, fails here.
func TestRunOutputDigest(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var kept strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.Contains(line, "checkpoints in ") {
			kept.WriteString(line)
		}
	}
	const want = "22441bcfa974d97b6d51d62a2dbe6ab3a96f04434db12c8d833bce096c888f2c"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(kept.String()))); got != want {
		t.Errorf("output digest %s, want %s; output:\n%s", got, want, out.String())
	}
}
