package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// onlyFile fails unless dir holds name and nothing else: a temporary
// file left behind would show up beside it.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("%s holds %v, want only %s", dir, entries, name)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, writeString("new")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "new" {
		t.Fatalf("got %q, %v", data, err)
	}
	onlyFile(t, dir, "report.txt")
}

// TestWriteFileFillFails: a fill that fails after writing part of the
// new contents leaves the old file untouched and no temporary behind.
func TestWriteFileFillFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half-written"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want the fill error", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "old" {
		t.Fatalf("after failed fill got %q, %v; want the old contents", data, err)
	}
	onlyFile(t, dir, "report.txt")
}
