package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func inspectBytes(t *testing.T, data []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifact")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return inspect(path)
}

func TestInspectUnknownMagicNamesEveryFormat(t *testing.T) {
	err := inspectBytes(t, []byte("XXXX1234"))
	if err == nil || !strings.Contains(err.Error(), "want FHDN, FHDM or FHDE") {
		t.Fatalf("error %v, want one naming FHDN, FHDM and FHDE", err)
	}
}

// TestInspectLyingParamLength feeds a full checkpoint whose only param
// claims more values than the file holds: the error must name the param,
// not surface later as an encoder-header EOF.
func TestInspectLyingParamLength(t *testing.T) {
	data := []byte("FHDN")
	data = binary.LittleEndian.AppendUint32(data, 1)     // one param
	data = binary.LittleEndian.AppendUint32(data, 1<<20) // claims 4 MiB
	data = append(data, make([]byte, 16)...)
	err := inspectBytes(t, data)
	if err == nil || !strings.Contains(err.Error(), "param 0 payload truncated") {
		t.Fatalf("error %v, want param 0 payload truncated", err)
	}
}
