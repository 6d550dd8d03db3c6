// Package persist saves and loads model parameters in a binary checkpoint
// format, so trained slicing models can be deployed by cmd/mstrain, the
// servers and the examples.
//
// Checkpoints are crash-safe: Save writes to a temporary file in the target
// directory, fsyncs it, and renames it over the destination — a crash at any
// point leaves either the old checkpoint or the new one, never a torn mix.
// The current format (magic "MSLC0003", see format3.go) is sectioned and
// 64-byte-aligned with a CRC per section, so Open can mmap the payloads and
// Bind a model over them without copying a byte; Load parse-copies the same
// file portably after verifying every checksum. Legacy "MSLC0002" (whole-file
// CRC trailer) and "MSLC0001" (no checksum) checkpoints still load
// bit-identically.
package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"modelslicing/internal/faults"
	"modelslicing/internal/nn"
)

const (
	magicV1 = "MSLC0001" // legacy: no checksum trailer
	magicV2 = "MSLC0002" // legacy: CRC32-IEEE over magic+body appended
	// magicV3 (the current format) lives in format3.go.
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
// architecture (names and shapes must match in order). A current-format
// checkpoint is checksum-verified in full before any parameter is written,
// so a torn or corrupted file can never leave the model half-loaded with
// garbage.
func Load(path string, params []*nn.Param) error {
	if err := faults.ErrOn(faults.DiskError); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if len(raw) < len(magicV2) {
		return fmt.Errorf("persist: %s is not a model-slicing checkpoint", path)
	}
	switch string(raw[:len(magicV2)]) {
	case magicV3:
		return loadV3(raw, path, params)
	case magicV2:
		if len(raw) < len(magicV2)+4 {
			return fmt.Errorf("persist: %s: truncated checkpoint (no checksum)", path)
		}
		body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
		want := binary.LittleEndian.Uint32(trailer)
		if got := crc32.ChecksumIEEE(body); got != want {
			return fmt.Errorf("persist: %s: checksum mismatch (%08x != %08x): checkpoint is corrupt", path, got, want)
		}
		return readBody(bytes.NewReader(body[len(magicV2):]), params)
	case magicV1:
		// Legacy checkpoints carry no checksum; parse defensively and trust
		// the structural checks.
		return readBody(bytes.NewReader(raw[len(magicV1):]), params)
	default:
		return fmt.Errorf("persist: %s is not a model-slicing checkpoint", path)
	}
}

// readBody parses the parameter sections into params.
func readBody(r io.Reader, params []*nn.Param) error {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if int(n) != len(params) {
		return fmt.Errorf("persist: checkpoint has %d params, model has %d", n, len(params))
	}
	for i, p := range params {
		name, err := readString(r)
		if err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("persist: param %d is %q in checkpoint but %q in model", i, name, p.Name)
		}
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if int(rank) != len(p.Value.Shape) {
			return fmt.Errorf("persist: param %q rank mismatch", name)
		}
		for j := range p.Value.Shape {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != p.Value.Shape[j] {
				return fmt.Errorf("persist: param %q shape mismatch at dim %d: %d vs %d",
					name, j, d, p.Value.Shape[j])
			}
		}
		// A model bound over a read-only mapping must not be written
		// through; copy-on-write detaches it first.
		p.EnsureMutable()
		if err := binary.Read(r, binary.LittleEndian, p.Value.Data); err != nil {
			return err
		}
	}
	return nil
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("persist: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
