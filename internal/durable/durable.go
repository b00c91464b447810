// Package durable is the one atomic, crash-safe file replacement that
// every persisted artifact goes through.
package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFile replaces path with what fill writes: fill writes a temporary
// file in path's directory, which is fsynced and renamed over path, and
// the directory is fsynced so the rename survives a crash. Readers see
// the old contents or the new, never a mix. When any step fails, path
// is untouched and the temporary file removed. A filesystem that cannot
// fsync a directory (EINVAL, ENOTSUP) is not an error: the rename is
// still atomic there, just not durability-ordered.
func WriteFile(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	werr := fill(tmp)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(name, path)
	}
	if werr != nil {
		_ = os.Remove(name)
		return werr
	}
	return syncDir(dir)
}

// Bytes returns a WriteFile fill that writes data.
func Bytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	// Read-only directory handle: nothing buffered can be lost on close.
	_ = d.Close()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
