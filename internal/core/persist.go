package core

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"tcstudy/internal/pagedisk"
	"tcstudy/internal/relation"
)

// Database snapshots: a built database — the graph relation, its dual
// representation, and both catalogs — can be written to a directory and
// reopened later, skipping relation construction. Queries over a restored
// database behave identically: the cost model counts simulated page I/O,
// which is unaffected by where the snapshot came from.

const manifestName = "manifest.gob"

// manifest is the serialized database catalog.
type manifest struct {
	Version int
	N       int
	Rel     relation.Meta
	Inv     relation.Meta
	// Weighted databases also record the weight column's file.
	HasWeights bool
	WeightFile pagedisk.FileID
}

const manifestVersion = 1

// SaveDatabase writes the database into dir (created if needed). The
// database must be backed by the plain simulated disk: snapshotting a
// fault-wrapped store would capture whatever the wrapper let through.
func SaveDatabase(db *Database, dir string) error {
	disk, ok := db.disk.(*pagedisk.Disk)
	if !ok {
		return fmt.Errorf("core: cannot snapshot a database on a %T store; swap the plain disk back first", db.disk)
	}
	if err := disk.Save(dir); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, manifestName))
	if err != nil {
		return err
	}
	defer f.Close()
	m := manifest{
		Version: manifestVersion,
		N:       db.n,
		Rel:     db.rel.Meta(),
		Inv:     db.inv.Meta(),
	}
	if db.wcol != nil {
		m.HasWeights = true
		m.WeightFile = db.wcol.File()
	}
	if err := gob.NewEncoder(f).Encode(m); err != nil {
		return err
	}
	return f.Sync()
}

// OpenDatabase restores a database previously written by SaveDatabase.
func OpenDatabase(dir string) (*Database, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m manifest
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: corrupt manifest in %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d", m.Version, manifestVersion)
	}
	disk, err := pagedisk.Load(dir)
	if err != nil {
		return nil, err
	}
	if int(m.Rel.File) >= disk.NumFiles() || int(m.Inv.File) >= disk.NumFiles() {
		return nil, fmt.Errorf("core: manifest references missing snapshot files")
	}
	db := &Database{
		disk: disk,
		rel:  relation.Restore(m.Rel),
		inv:  relation.Restore(m.Inv),
		n:    m.N,
	}
	if m.HasWeights {
		if int(m.WeightFile) >= disk.NumFiles() {
			return nil, fmt.Errorf("core: manifest references missing weight column")
		}
		db.wcol = relation.RestoreWeightColumn(m.WeightFile)
	}
	// The B+-trees are derived structures; rebuild them from the restored
	// catalogs rather than persisting them.
	db.buildIndexes()
	// As in NewDatabase: the base files are immutable once the indexes
	// exist, so seal them for lock-free, copy-free concurrent reads.
	disk.SealAll()
	// Learn once whether the stored graph is a DAG, as NewDatabase does.
	arcs, err := db.Arcs()
	if err != nil {
		return nil, err
	}
	for _, a := range arcs {
		if a.From < 1 || a.From > int32(db.n) || a.To < 1 || a.To > int32(db.n) {
			return nil, fmt.Errorf("core: snapshot in %s stores arc (%d,%d) outside its node space 1..%d", dir, a.From, a.To, db.n)
		}
	}
	db.learnCycles(arcs)
	return db, nil
}
