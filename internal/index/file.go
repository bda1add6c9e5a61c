package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"tcstudy/internal/bitset"
)

// On-disk format (all integers little-endian). docs/INDEX.md carries the
// narrative description.
//
//	magic   "TCIX"                                   4 bytes
//	version u32 = 1
//	header  u32 n, u32 K, u32 numChains, u32 numArcs, u32 flags (bit0 reserved, bit1 kt)
//	comp    n   x i32       condensation map, nodes 1..n
//	chains  K   x i32       chainID per DAG node (0-based)
//	        K   x i32       chainPos per DAG node
//	selfLp  u32 words, words x u64   self-loop bitset over nodes 0..n
//	labels  K entries: u32 count, count x (i32 chain, i32 minPos)
//	crc32   u32             IEEE CRC of every preceding byte
//
// Load rejects a wrong magic, an unknown version, a CRC mismatch
// (truncation, bit flips), a set reserved flag bit and any structurally
// inconsistent section.

const (
	fileMagic   = "TCIX"
	fileVersion = 1

	// flagReserved once marked an index an insert had invalidated. No
	// writer sets it any more (a cycle-closing insert collapses the new
	// component in place), and Load refuses a file that carries it: its
	// labels describe a graph older than its arc count.
	flagReserved = 1 << 0
	// flagKT records that the chains came from the Kritikakis–Tollis
	// builder (BuildKT). Readers that predate the flag ignore unknown
	// bits, and the chain sections are structurally identical either way,
	// so this is not a format bump — the same version 1 loader accepts
	// both decompositions.
	flagKT = 1 << 1
)

// Save writes the index to w in the versioned binary format.
func (x *Index) Save(w io.Writer) error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	k := len(x.labels) - 1
	buf := make([]byte, 0, 64+4*x.n+8*k)
	buf = append(buf, fileMagic...)
	buf = le32(buf, fileVersion)
	buf = le32(buf, uint32(x.n))
	buf = le32(buf, uint32(k))
	buf = le32(buf, uint32(x.numChains))
	buf = le32(buf, uint32(x.numArcs))
	var flags uint32
	if x.builder == BuilderKT {
		flags |= flagKT
	}
	buf = le32(buf, flags)
	for v := 1; v <= x.n; v++ {
		buf = le32(buf, uint32(x.comp[v]))
	}
	for d := 1; d <= k; d++ {
		buf = le32(buf, uint32(x.chainID[d]))
	}
	for d := 1; d <= k; d++ {
		buf = le32(buf, uint32(x.chainPos[d]))
	}
	words := x.selfLoop.Words()
	buf = le32(buf, uint32(len(words)))
	for _, w64 := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w64)
	}
	for d := 1; d <= k; d++ {
		l := &x.labels[d]
		buf = le32(buf, uint32(len(l.chains)))
		for i := range l.chains {
			buf = le32(buf, uint32(l.chains[i]))
			buf = le32(buf, uint32(l.minPos[i]))
		}
	}
	buf = le32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// SaveFile writes the index to path, replacing any existing file.
func (x *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := x.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// savedBytesLocked computes the exact size Save would write, mirroring its
// layout: magic + version + header, the comp/chain/position columns, the
// self-loop bitset, every label, and the CRC trailer. Callers hold mu.
func (x *Index) savedBytesLocked() int64 {
	k := len(x.labels) - 1
	size := int64(4 + 4 + 5*4) // magic, version, header words
	size += int64(4 * x.n)     // comp column
	size += int64(8 * k)       // chainID + chainPos columns
	size += 4                  // self-loop word count
	size += int64(8 * len(x.selfLoop.Words()))
	for d := 1; d <= k; d++ {
		size += int64(4 + 8*len(x.labels[d].chains))
	}
	return size + 4 // CRC trailer
}

// Load reads an index in the format written by Save, verifying the magic,
// version, checksum and the structural invariants of every section.
func Load(r io.Reader) (*Index, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	if len(raw) < len(fileMagic)+4+4 {
		return nil, fmt.Errorf("index: load: file truncated (%d bytes)", len(raw))
	}
	if string(raw[:4]) != fileMagic {
		return nil, fmt.Errorf("index: load: bad magic %q", raw[:4])
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("index: load: checksum mismatch (file %08x, computed %08x): corrupt or truncated", want, got)
	}
	c := &cursor{b: body, off: 4}
	if v := c.u32(); v != fileVersion {
		return nil, fmt.Errorf("index: load: unsupported version %d (want %d)", v, fileVersion)
	}
	n := int(c.u32())
	k := int(c.u32())
	numChains := int(c.u32())
	numArcs := int(c.u32())
	flags := c.u32()
	if c.err == nil && flags&flagReserved != 0 {
		return nil, fmt.Errorf("index: load: reserved flag bit 0 set (an index invalidated by an insert): rebuild it")
	}
	builder := BuilderGreedy
	if flags&flagKT != 0 {
		builder = BuilderKT
	}
	if c.err == nil && (n < 0 || k < 0 || k > n || numChains > k || numArcs < 0) {
		return nil, fmt.Errorf("index: load: inconsistent header (n=%d K=%d chains=%d)", n, k, numChains)
	}
	// The fixed-width sections alone need 4 bytes per node plus 12 per
	// component; a header promising more than the file holds is corrupt
	// (and must not drive allocations).
	if c.err == nil && 4*n+12*k > len(body)-c.off {
		return nil, fmt.Errorf("index: load: header promises %d nodes / %d components but only %d bytes follow", n, k, len(body)-c.off)
	}

	x := &Index{
		n:         n,
		numArcs:   numArcs,
		numChains: numChains,
		builder:   builder,
		comp:      make([]int32, n+1),
		chainID:   make([]int32, k+1),
		chainPos:  make([]int32, k+1),
		labels:    make([]label, k+1),
	}
	for v := 1; v <= n; v++ {
		x.comp[v] = c.i32()
		if c.err == nil && (x.comp[v] < 1 || int(x.comp[v]) > k) {
			return nil, fmt.Errorf("index: load: node %d mapped to component %d outside 1..%d", v, x.comp[v], k)
		}
	}
	for d := 1; d <= k; d++ {
		x.chainID[d] = c.i32()
		if c.err == nil && (x.chainID[d] < 0 || int(x.chainID[d]) >= numChains) {
			return nil, fmt.Errorf("index: load: component %d on chain %d outside 0..%d", d, x.chainID[d], numChains-1)
		}
	}
	for d := 1; d <= k; d++ {
		x.chainPos[d] = c.i32()
		if c.err == nil && x.chainPos[d] < 0 {
			return nil, fmt.Errorf("index: load: negative chain position for component %d", d)
		}
	}
	nwords := int(c.u32())
	if c.err == nil && nwords != (n+1+63)/64 {
		return nil, fmt.Errorf("index: load: self-loop bitset has %d words, want %d", nwords, (n+1+63)/64)
	}
	if c.err == nil && 8*nwords > len(body)-c.off {
		return nil, fmt.Errorf("index: load: self-loop section truncated")
	}
	words := make([]uint64, 0, max(nwords, 0))
	for i := 0; i < nwords && c.err == nil; i++ {
		words = append(words, c.u64())
	}
	x.selfLoop = bitset.FromWords(words)
	if c.err != nil {
		return nil, fmt.Errorf("index: load: %w", c.err)
	}

	// Chains must be an exact partition: every (chainID, chainPos) pair
	// lands in a distinct slot and no chain has holes.
	counts := make([]int32, numChains)
	for d := 1; d <= k; d++ {
		counts[x.chainID[d]]++
	}
	filled := make([][]bool, numChains)
	for ci := range filled {
		if counts[ci] == 0 {
			return nil, fmt.Errorf("index: load: chain %d is empty", ci)
		}
		filled[ci] = make([]bool, counts[ci])
	}
	for d := 1; d <= k; d++ {
		ci, p := x.chainID[d], x.chainPos[d]
		if p >= counts[ci] {
			return nil, fmt.Errorf("index: load: component %d at position %d of chain %d (length %d)", d, p, ci, counts[ci])
		}
		if filled[ci][p] {
			return nil, fmt.Errorf("index: load: two components at position %d of chain %d", p, ci)
		}
		filled[ci][p] = true
	}
	x.chains = chainsOf(x.chainID, x.chainPos, numChains)

	for d := 1; d <= k; d++ {
		cnt := int(c.u32())
		if c.err != nil {
			break
		}
		if cnt < 0 || cnt > numChains {
			return nil, fmt.Errorf("index: load: label %d has %d entries over %d chains", d, cnt, numChains)
		}
		l := label{
			set:    bitset.New(numChains),
			chains: make([]int32, cnt),
			minPos: make([]int32, cnt),
		}
		for i := 0; i < cnt; i++ {
			l.chains[i] = c.i32()
			l.minPos[i] = c.i32()
			if c.err != nil {
				break
			}
			if l.chains[i] < 0 || int(l.chains[i]) >= numChains {
				return nil, fmt.Errorf("index: load: label %d references chain %d", d, l.chains[i])
			}
			if i > 0 && l.chains[i] <= l.chains[i-1] {
				return nil, fmt.Errorf("index: load: label %d chains not strictly ascending", d)
			}
			if l.minPos[i] < 0 || l.minPos[i] >= int32(len(x.chains[l.chains[i]])) {
				return nil, fmt.Errorf("index: load: label %d position %d outside chain %d", d, l.minPos[i], l.chains[i])
			}
			l.set.Add(l.chains[i])
		}
		x.labels[d] = l
	}
	if c.err != nil {
		return nil, fmt.Errorf("index: load: %w", c.err)
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("index: load: %d trailing bytes", len(body)-c.off)
	}
	x.members = make([][]int32, k+1)
	for v := int32(1); v <= int32(n); v++ {
		x.members[x.comp[v]] = append(x.members[x.comp[v]], v)
	}
	x.recomputeSucc()
	return x, nil
}

// LoadFile reads an index file written by SaveFile.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// cursor is an error-latching little-endian reader over one byte slice.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("section truncated at byte %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) i32() int32 { return int32(c.u32()) }

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = fmt.Errorf("section truncated at byte %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}
