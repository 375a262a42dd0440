package database

import (
	"encoding/binary"
	"fmt"

	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// Snapshot codec: a full database version in the binary wire format of
// internal/value, the record the archive's snapshot files carry (the
// "complete archives" of Section 3.3 made durable).
//
//	snapshot := version:varint
//	            nrels:uvarint
//	            nrels x (name:string rep:uint8 tuples:EncodeTuples)
//
// Relations are encoded in sorted name order so equal versions have equal
// encodings.

// AppendSnapshot appends the wire form of db to dst. Each relation's tuple
// block is encoded straight into dst by a key-order walk, then shifted right
// by the length prefix it needs: no slice of tuples, no buffer per block.
func AppendSnapshot(dst []byte, db *Database) ([]byte, error) {
	dst = binary.AppendVarint(dst, db.Version())
	names := db.RelationNames()
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		rel, ok := db.RelationFast(name)
		if !ok {
			return dst, fmt.Errorf("database: snapshot lost relation %q", name)
		}
		dst = value.AppendString(dst, name)
		dst = append(dst, byte(rel.Rep()))
		start := len(dst)
		dst = binary.AppendUvarint(dst, uint64(rel.Len()))
		var err error
		rel.Range(nil, value.MinKey(), value.MaxKey(), trace.None, func(tu value.Tuple) {
			if err == nil {
				dst, err = value.AppendTuple(dst, tu)
			}
		})
		if err != nil {
			return dst, fmt.Errorf("database: snapshot of %q: %w", name, err)
		}
		var prefix [binary.MaxVarintLen64]byte
		p := binary.PutUvarint(prefix[:], uint64(len(dst)-start))
		dst = append(dst, prefix[:p]...)
		copy(dst[start+p:], dst[start:len(dst)-p])
		copy(dst[start:], prefix[:p])
	}
	return dst, nil
}

// DecodeSnapshot rebuilds a database version from its wire form. Corrupt
// input yields an error wrapping value.ErrCorrupt, never a panic.
func DecodeSnapshot(buf []byte) (*Database, error) {
	version, n := binary.Varint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad snapshot version", value.ErrCorrupt)
	}
	buf = buf[n:]
	nrels, n := binary.Uvarint(buf)
	if n <= 0 || nrels > uint64(len(buf)) {
		return nil, fmt.Errorf("%w: bad relation count", value.ErrCorrupt)
	}
	buf = buf[n:]
	names := make([]string, 0, nrels)
	rels := make([]relation.Relation, 0, nrels)
	for i := uint64(0); i < nrels; i++ {
		name, rest, err := value.DecodeString(buf)
		if err != nil {
			return nil, err
		}
		buf = rest
		if len(buf) == 0 {
			return nil, fmt.Errorf("%w: missing representation byte", value.ErrCorrupt)
		}
		rep := relation.Rep(buf[0])
		buf = buf[1:]
		switch rep {
		case relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged:
		default:
			return nil, fmt.Errorf("%w: unknown representation %d", value.ErrCorrupt, rep)
		}
		size, n := binary.Uvarint(buf)
		if n <= 0 || size > uint64(len(buf)-n) {
			return nil, fmt.Errorf("%w: bad tuple block length", value.ErrCorrupt)
		}
		tuples, err := value.DecodeTuples(buf[n : n+int(size)])
		if err != nil {
			return nil, fmt.Errorf("relation %q: %w", name, err)
		}
		buf = buf[n+int(size):]
		names = append(names, name)
		rels = append(rels, relation.FromTuples(rep, tuples))
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", value.ErrCorrupt, len(buf))
	}
	return FromRelations(names, rels, version), nil
}

// AtVersion returns a view of db carrying the given version number. The
// directory is shared in its entirety; only the version label changes. The
// archive uses it to keep replayed versions on the engine's numbering (the
// engine counts every committed write, including no-op deletes that leave
// the database value itself unchanged).
func (db *Database) AtVersion(v int64) *Database {
	if db.version == v {
		return db
	}
	return &Database{dir: db.dir, version: v, ready: db.ready}
}
