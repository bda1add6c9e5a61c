package pagedisk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Snapshot persistence: the simulated disk can be written to and restored
// from a directory of page files, so a database built once (graph loading
// plus index construction) can be reopened later without repeating the
// work. Each simulated file becomes one operating-system file:
//
//	<dir>/file<NNNN>.pg := magic | version | name length | name |
//	                       page count | pages | crc32
//
// The trailing CRC32 (IEEE, over everything after the magic) is the
// defense against torn and partially-acknowledged writes: a snapshot cut
// short by a crash, or silently corrupted on media, fails loudly at load
// time instead of resurrecting a subtly wrong database.
//
// Persistence is a snapshot operation, not a write-through page store: the
// study's cost model counts simulated page I/O, and that accounting stays
// exact whether the disk was freshly built or restored.

const (
	snapshotMagic   = "TCPG"
	snapshotVersion = 2
)

func snapshotPath(dir string, f FileID) string {
	return filepath.Join(dir, fmt.Sprintf("file%04d.pg", f))
}

// Save writes every file of the disk into dir, creating it if needed.
// Existing snapshot files in dir are overwritten. Each file is quiesced
// (its stripe lock held, unless it is sealed and therefore immutable) while
// it is encoded, so snapshots are consistent even if other goroutines are
// querying.
func (d *Disk) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for id, fl := range d.catalog() {
		if !fl.sealed.Load() {
			fl.mu.RLock()
		}
		err := saveFile(dir, FileID(id), fl)
		if !fl.sealed.Load() {
			fl.mu.RUnlock()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func saveFile(dir string, id FileID, fl *file) error {
	f, err := os.Create(snapshotPath(dir, id))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(snapshotMagic); err != nil {
		return err
	}
	// Everything after the magic participates in the checksum.
	sum := crc32.NewIEEE()
	write := func(b []byte) error {
		sum.Write(b)
		_, err := w.Write(b)
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], snapshotVersion)
	if err := write(lenBuf[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(fl.name)))
	if err := write(lenBuf[:]); err != nil {
		return err
	}
	if err := write([]byte(fl.name)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(fl.pages)))
	if err := write(lenBuf[:]); err != nil {
		return err
	}
	for _, pg := range fl.pages {
		if err := write(pg[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(lenBuf[:], sum.Sum32())
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// Load restores a disk previously written by Save. Files are restored in
// their original FileID order, so IDs recorded elsewhere remain valid.
func Load(dir string) (*Disk, error) {
	d := New()
	for id := 0; ; id++ {
		path := snapshotPath(dir, FileID(id))
		if _, err := os.Stat(path); err != nil {
			if os.IsNotExist(err) {
				break
			}
			return nil, err
		}
		if err := d.loadFile(path); err != nil {
			return nil, fmt.Errorf("pagedisk: loading %s: %w", path, err)
		}
	}
	if d.NumFiles() == 0 {
		return nil, fmt.Errorf("pagedisk: no snapshot files in %s", dir)
	}
	return d, nil
}

// loadFile parses one snapshot file, rejecting a bad magic, an unknown
// version, a checksum mismatch (torn write, bit flip), an implausible
// header and any trailing garbage.
func (d *Disk) loadFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := parseSnapshot(raw)
	if err != nil {
		return err
	}
	d.addFile(f)
	// Loading is catalog reconstruction, not simulated I/O.
	d.ResetStats()
	return nil
}

// parseSnapshot decodes the body of one snapshot file. It is the
// fuzz-exercised decoder: arbitrary input must produce an error or a valid
// file, never a panic and never unbounded allocation.
func parseSnapshot(raw []byte) (*file, error) {
	const headerLen = len(snapshotMagic) + 4 + 4 // magic, version, name length
	if len(raw) < headerLen+4+4 {                // + page count + crc
		return nil, fmt.Errorf("truncated snapshot (%d bytes)", len(raw))
	}
	if string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", raw[:len(snapshotMagic)])
	}
	body, trailer := raw[len(snapshotMagic):len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("checksum mismatch (file %08x, computed %08x): torn write or corruption", want, got)
	}
	if v := binary.LittleEndian.Uint32(body); v != snapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	nameLen := binary.LittleEndian.Uint32(body[4:])
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("implausible name length %d", nameLen)
	}
	rest := body[8:]
	if uint64(len(rest)) < uint64(nameLen)+4 {
		return nil, fmt.Errorf("name section truncated")
	}
	name := string(rest[:nameLen])
	rest = rest[nameLen:]
	nPages := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) != uint64(nPages)*PageSize {
		return nil, fmt.Errorf("header promises %d pages but %d bytes of page data follow", nPages, len(rest))
	}
	f := &file{name: name, pages: make([]*Page, 0, nPages)}
	for p := uint32(0); p < nPages; p++ {
		pg := new(Page)
		copy(pg[:], rest[uint64(p)*PageSize:])
		f.pages = append(f.pages, pg)
	}
	return f, nil
}
