package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDefaultBlobIsSessionBlob: with default flags the tool writes the
// blob a default session compiles, the seed-42 GoogLeNet whose digest
// graphfile's TestCompilePinnedDigest pins, and states its size in
// 10^6-byte megabytes, the unit of the benchmark's blob_mb.
func TestDefaultBlobIsSessionBlob(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "googlenet.graph")
	var out strings.Builder
	if err := run([]string{"-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fmt.Sprintf("compiled blob: %d bytes (%.2f MB)", len(blob), float64(len(blob))/1e6)
	if !strings.Contains(out.String(), size) {
		t.Errorf("output lacks %q:\n%s", size, out.String())
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

// TestRejectsPositionalArgument: a bare network name is an error, not
// a silent compile of the default network.
func TestRejectsPositionalArgument(t *testing.T) {
	err := run([]string{"micro"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"micro"`) {
		t.Errorf("run(micro) = %v, want an unexpected-argument error", err)
	}
}
