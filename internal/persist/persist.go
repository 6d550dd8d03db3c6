// Package persist saves and loads model parameters in a binary checkpoint
// format, so trained slicing models can be deployed by cmd/mstrain, the
// servers and the examples.
//
// Checkpoints are crash-safe: Save writes to a temporary file in the target
// directory, fsyncs it, and renames it over the destination — a crash at any
// point leaves either the old checkpoint or the new one, never a torn mix.
// There is one format (magic "MSLC0003", see format3.go): sectioned and
// 64-byte-aligned with a CRC per section, so Open can mmap the payloads and
// Bind a model over them without copying a byte; Load parse-copies the same
// file portably after verifying every checksum. Any other file, older
// checkpoint generations included, is rejected.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"modelslicing/internal/faults"
	"modelslicing/internal/nn"
)

// Save atomically writes the parameters of a model to path in the current v3
// format: the bytes go to a temporary file in path's directory, are fsynced,
// and are renamed into place — readers (and crashes) see the old checkpoint
// or the new one in full, never a partial write. The whole image is encoded
// into one pooled buffer and written with a single syscall, so periodic
// saves in a training loop don't re-allocate the payload every epoch.
func Save(path string, params []*nn.Param) error {
	return SaveEpoch(path, params, 0)
}

// SaveEpoch is Save with the training epoch recorded in the v3 header, where
// Open surfaces it as Checkpoint.Epoch (and msserver as model identity).
func SaveEpoch(path string, params []*nn.Param, epoch uint64) error {
	e := encPool.Get().(*encBuf)
	defer encPool.Put(e)
	encodeV3(e, params, epoch)
	return writeAtomic(path, e.b)
}

// writeAtomic publishes data at path via the temp-fsync-rename dance.
func writeAtomic(path string, data []byte) error {
	if err := faults.ErrOn(faults.DiskError); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp := f.Name()
	// Any failure from here on leaves no debris: the temp file is removed
	// and the real checkpoint was never touched.
	defer func() {
		if f != nil {
			f.Close()
		}
		if tmp != "" {
			os.Remove(tmp)
		}
	}()
	if _, err := f.Write(data); err != nil {
		return err
	}
	// Durability order: file contents reach disk before the rename publishes
	// them, and the directory entry reaches disk before Save claims success.
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		f = nil
		return err
	}
	f = nil
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp = ""
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that refuse directory fsync (some CI tmpfs mounts) are not an
// integrity problem — the rename itself is still atomic — so refusal is not
// an error.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// Load reads a checkpoint into the parameters of a model built with the same
// architecture (names and shapes must match in order). The whole file is
// checksum-verified and every name and shape checked before any parameter is
// written, so a rejected checkpoint leaves the model exactly as it was.
func Load(path string, params []*nn.Param) error {
	if err := faults.ErrOn(faults.DiskError); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return loadImage(raw, path, params)
}

// loadImage is Load's parse-copy path over an in-memory image: parse,
// verify, match, then copy.
func loadImage(raw []byte, path string, params []*nn.Param) error {
	ck, err := parseV3(raw, path)
	if err != nil {
		return err
	}
	if err := ck.Verify(); err != nil {
		return err
	}
	if err := ck.match(params); err != nil {
		return err
	}
	for i, p := range params {
		s := ck.sections[i]
		// A model bound over a read-only mapping must not be written through;
		// copy-on-write detaches it first.
		p.EnsureMutable()
		payload := raw[s.off : s.off+s.length]
		for j := range p.Value.Data {
			p.Value.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*j:]))
		}
	}
	return nil
}
