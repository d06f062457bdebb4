package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLegacySpoolObsFramesRefused: a spool written by an older client
// journals one "obs" frame per observation. Opening one that still holds
// unacked "obs" frames fails with an error naming the format and the
// file, and leaves the file as it was, so the build that wrote it can
// still drain it.
func TestLegacySpoolObsFramesRefused(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_obs.spool")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"type":"obs"`)) {
		t.Fatal("fixture holds no legacy obs frames")
	}
	path := filepath.Join(t.TempDir(), "edge.spool")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenSpool(path)
	if err == nil {
		sp.Close()
		t.Fatal("a spool with unacked obs frames opened")
	}
	if !strings.Contains(err.Error(), `"obs"`) || !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q names neither the obs format nor the file", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("refused spool was rewritten (%v):\n%s", err, after)
	}
}
