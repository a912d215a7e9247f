// Package ckpt implements the checkpoint container used to make federated
// runs resumable: a versioned, checksummed binary section file plus atomic
// file helpers. The container carries named opaque sections; the run-state
// schema (which sections exist and what they hold) lives with the types that
// own the state (internal/core), each section body written and read by one
// field list run through this package's Coder.
//
// File format (all integers little endian):
//
//	offset  size  field
//	0       8     magic "FEDCKPT\x00"
//	8       4     format version (currently 1)
//	12      4     section count
//	        per section:
//	          2   name length
//	          n   name (UTF-8)
//	          8   body length
//	          m   body
//	last    4     CRC-32 (Castagnoli) over every preceding byte
//
// Encoding is fully deterministic: the same sections in the same order
// produce the same bytes, so checkpoint files can be golden-tested
// byte-for-byte. Every decode failure mode — truncation, bit flips, a bad
// magic or checksum — surfaces as an error wrapping ErrCorrupt (version
// skew as ErrVersion); a corrupt file is never partially applied.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var (
	// ErrCorrupt reports a checkpoint file that failed structural
	// validation: wrong magic, truncated data, or a checksum mismatch.
	// Loading never partially applies such a file.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
	// ErrVersion reports a checkpoint written by an incompatible format
	// version. It wraps ErrCorrupt so a single errors.Is(err, ErrCorrupt)
	// covers every "do not trust this file" case.
	ErrVersion = fmt.Errorf("%w: unsupported format version", ErrCorrupt)
	// ErrNoCheckpoint reports that LoadLatest found no checkpoint files.
	ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")
)

const (
	// Version is the current container format version.
	Version = 1

	magic = "FEDCKPT\x00"
	// fileExt names checkpoint files; Path and LoadLatest agree on it.
	fileExt = ".fedckpt"
	// filePrefix is the per-round file stem.
	filePrefix = "round-"
	// maxSections and maxSectionBody bound decoding so a corrupt length
	// field cannot trigger an enormous allocation.
	maxSections    = 1 << 16
	maxSectionBody = 1 << 32
)

// crcTable is the Castagnoli polynomial table shared by encode and decode.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Section is one named payload inside a checkpoint file.
type Section struct {
	// Name identifies the section ("meta", "model", ...).
	Name string
	// Body is the section's opaque payload.
	Body []byte
}

// Marshal serializes sections into the container format, deterministically.
func Marshal(sections []Section) ([]byte, error) {
	size := len(magic) + 4 + 4 + 4 // header + trailing CRC
	for _, s := range sections {
		if len(s.Name) > 1<<16-1 {
			return nil, fmt.Errorf("ckpt: section name %q too long", s.Name[:32])
		}
		size += 2 + len(s.Name) + 8 + len(s.Body)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sections)))
	for _, s := range sections {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Name)))
		buf = append(buf, s.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.Body)))
		buf = append(buf, s.Body...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf, nil
}

// Unmarshal parses and fully validates a container produced by Marshal. Any
// structural problem returns an error wrapping ErrCorrupt (ErrVersion for
// format-version skew); no partial result is ever returned.
func Unmarshal(b []byte) ([]Section, error) {
	headerLen := len(magic) + 4 + 4
	if len(b) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal container", ErrCorrupt, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	// The checksum covers the version field, so verify it first: a flipped
	// bit in the version must read as corruption, not as a future version.
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w %d (supported: %d)", ErrVersion, v, Version)
	}
	count := binary.LittleEndian.Uint32(b[len(magic)+4:])
	if count > maxSections {
		return nil, fmt.Errorf("%w: %d sections exceeds limit", ErrCorrupt, count)
	}
	off := headerLen
	sections := make([]Section, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(body)-off < 2 {
			return nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if len(body)-off < nameLen+8 {
			return nil, fmt.Errorf("%w: truncated section name", ErrCorrupt)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		bodyLen := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if bodyLen > maxSectionBody || uint64(len(body)-off) < bodyLen {
			return nil, fmt.Errorf("%w: section %q body overruns file", ErrCorrupt, name)
		}
		sections = append(sections, Section{Name: name, Body: body[off : off+int(bodyLen)]})
		off += int(bodyLen)
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(body)-off)
	}
	return sections, nil
}

// Path returns the canonical checkpoint filename for a round within dir.
func Path(dir string, round int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%09d%s", filePrefix, round, fileExt))
}

// Save marshals sections and writes them to path atomically: the bytes land
// in a temporary file in the same directory first, synced, and are renamed
// into place, so a crash mid-write can never leave a truncated checkpoint
// under the final name; the directory is synced after the rename, so the
// published name survives a power loss too.
func Save(path string, sections []Section) error {
	blob, err := Marshal(sections)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	// Flush file contents before the rename publishes the name: an atomic
	// rename of unsynced data could survive a crash as an empty file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: save: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ckpt: save: sync %s: %w", dir, err)
	}
	return nil
}

// Load reads and validates the checkpoint at path.
func Load(path string) ([]Section, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	sections, err := Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", path, err)
	}
	return sections, nil
}

// parseRound extracts the round from a canonical checkpoint filename,
// strictly: exactly filePrefix + nine digits + fileExt, nothing else. The
// strictness matters — every accepted name must round-trip through Path, or
// LoadLatest would try to open files under names they do not have.
func parseRound(name string) (int, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileExt) {
		return 0, false
	}
	digits := name[len(filePrefix) : len(name)-len(fileExt)]
	if len(digits) != 9 {
		return 0, false
	}
	round := 0
	for _, c := range []byte(digits) {
		if c < '0' || c > '9' {
			return 0, false
		}
		round = 10*round + int(c-'0')
	}
	return round, true
}

// Rounds lists the rounds that have a checkpoint file in dir, ascending.
// Files not matching the canonical naming exactly (backups, hand-renamed
// copies) are ignored.
func Rounds(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var rounds []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if round, ok := parseRound(e.Name()); ok {
			rounds = append(rounds, round)
		}
	}
	sort.Ints(rounds)
	return rounds, nil
}

// LoadLatest loads the newest valid checkpoint in dir and returns its round.
// A corrupt newest file is skipped in favor of the next-newest valid one —
// a run is better resumed from round R−1 than restarted from zero — and the
// skipped files' errors are joined into the result on total failure. A
// missing or empty directory returns ErrNoCheckpoint.
func LoadLatest(dir string) (int, []Section, error) {
	rounds, err := Rounds(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return 0, nil, err
	}
	if len(rounds) == 0 {
		return 0, nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	var errs []error
	for i := len(rounds) - 1; i >= 0; i-- {
		sections, err := Load(Path(dir, rounds[i]))
		if err == nil {
			return rounds[i], sections, nil
		}
		errs = append(errs, err)
	}
	return 0, nil, fmt.Errorf("ckpt: every checkpoint in %s is unreadable: %w", dir, errors.Join(errs...))
}
