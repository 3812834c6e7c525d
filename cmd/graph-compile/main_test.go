package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultBlobIsSessionBlob: with default flags the tool writes the
// blob a default session compiles, the seed-42 GoogLeNet whose digest
// graphfile's TestCompilePinnedDigest pins.
func TestDefaultBlobIsSessionBlob(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "googlenet.graph")
	if err := run([]string{"-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	const want = "ea47ab48943ed1c465011854efa64f7f42a81593e9efae6866eb43e9f9275e0e"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("default blob sha256 = %s, want %s (googlenet-seed42)", got, want)
	}
}

func TestRejectsUnknownNetwork(t *testing.T) {
	if err := run([]string{"-net", "resnet"}, io.Discard); err == nil {
		t.Error("unknown network accepted")
	}
}
