package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
)

// ErrCorruptSnapshot tags every validation failure LoadSnapshot can
// diagnose — bad magic, checksum mismatch, truncated sections,
// implausible counts, dangling term references. Callers distinguish a
// corrupt base file (errors.Is) from plain I/O errors; the message
// always names the section that is corrupt.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// Snapshot format: a compact binary serialisation of a Store. Loading
// rebuilds all six orderings, so only the canonical spo relation is
// stored, delta-compressed like the RDF-3X leaves. The payload is
// integrity-checked with CRC-32.
//
//	magic "HSPSNP01" | "HSPSNP02"
//	(HSPSNP02 only) uvarint epoch
//	uvarint dictLen
//	dictLen × (kind byte, uvarint len, value bytes)   — IDs 1..dictLen in order
//	uvarint numTriples
//	numTriples × gap-compressed (s,p,o)
//	4-byte little-endian CRC-32 (IEEE) of everything above
//
// HSPSNP02 adds the snapshot's epoch directly after the magic, so a
// saved live dataset reloads at the version it was saved at instead of
// silently resetting epoch-keyed plan-cache entries to epoch 0; both
// versions load.
const (
	snapshotMagic   = "HSPSNP01"
	snapshotMagicV2 = "HSPSNP02"
)

// Save writes an epoch-less (HSPSNP01) snapshot of the store to w.
// Prefer Snapshot.Save for live datasets — it round-trips the epoch.
func (s *Store) Save(w io.Writer) error {
	return s.save(w, 0, snapshotMagic)
}

// Save writes an HSPSNP02 snapshot carrying the snapshot's epoch, so
// LoadSnapshot resumes the version lineage where it left off.
func (s *Snapshot) Save(w io.Writer) error {
	return s.st.save(w, s.epoch, snapshotMagicV2)
}

func (s *Store) save(w io.Writer, epoch uint64, magic string) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if magic == snapshotMagicV2 {
		if err := writeUvarint(epoch); err != nil {
			return err
		}
	}

	// The dictionary is shared with the live dataset and may grow while
	// this runs (a commit interning terms beside a compaction), so its
	// length is read once: the count written and the terms written must
	// agree. Every ID the store references was interned before the store
	// was published, so the prefix covers them all.
	d := s.Dict()
	n := d.Len()
	if err := writeUvarint(uint64(n)); err != nil {
		return err
	}
	for id := dict.ID(1); int(id) <= n; id++ {
		t := d.Term(id)
		if err := bw.WriteByte(byte(t.Kind)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(t.Value))); err != nil {
			return err
		}
		if _, err := bw.WriteString(t.Value); err != nil {
			return err
		}
	}

	rel := s.Rel(SPO)
	if err := writeUvarint(uint64(len(rel))); err != nil {
		return err
	}
	var prev Triple
	for i, t := range rel {
		if i == 0 {
			for _, v := range t {
				if err := writeUvarint(v); err != nil {
					return err
				}
			}
		} else {
			df := 0
			for df < 2 && prev[df] == t[df] {
				df++
			}
			if err := bw.WriteByte(byte(df)); err != nil {
				return err
			}
			if err := writeUvarint(t[df] - prev[df]); err != nil {
				return err
			}
			for j := df + 1; j < 3; j++ {
				if err := writeUvarint(t[j]); err != nil {
					return err
				}
			}
		}
		prev = t
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// Load reads a snapshot written by either Save and rebuilds the store
// (including all six orderings), dropping any stored epoch. The whole
// snapshot is read into memory first — the store itself is
// memory-resident, so this adds no asymptotic cost — and the checksum
// verified before parsing.
func Load(r io.Reader) (*Store, error) {
	snap, err := LoadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return snap.Store(), nil
}

// LoadSnapshot reads a snapshot written by Store.Save or Snapshot.Save
// and rebuilds it with its epoch: HSPSNP02 files resume at the epoch
// they were saved at, epoch-less HSPSNP01 files load at epoch 0.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	if len(raw) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("store: %w: file truncated (%d bytes, %d-byte header + checksum required)", ErrCorruptSnapshot, len(raw), len(snapshotMagic)+4)
	}
	payload, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("store: %w: checksum mismatch over %d payload bytes", ErrCorruptSnapshot, len(payload))
	}
	br := bytes.NewReader(payload)

	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: %w: reading header: %w", ErrCorruptSnapshot, err)
	}
	var epoch uint64
	switch string(magic) {
	case snapshotMagic:
	case snapshotMagicV2:
		epoch, err = binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: %w: epoch field: %w", ErrCorruptSnapshot, err)
		}
	default:
		return nil, fmt.Errorf("store: %w: not a snapshot file (bad magic %q)", ErrCorruptSnapshot, magic)
	}

	dictLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: %w: dictionary length: %w", ErrCorruptSnapshot, err)
	}
	// Every dictionary entry costs at least two bytes (kind + length),
	// so a length beyond half the remaining payload is a corrupt field,
	// caught before it sizes any allocation.
	if dictLen > uint64(br.Len())/2 {
		return nil, fmt.Errorf("store: %w: dictionary length %d exceeds %d remaining payload bytes", ErrCorruptSnapshot, dictLen, br.Len())
	}
	d := dict.New()
	buf := make([]byte, 0, 256)
	for i := uint64(0); i < dictLen; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("store: %w: term %d kind: %w", ErrCorruptSnapshot, i, err)
		}
		if kind > byte(rdf.Blank) {
			return nil, fmt.Errorf("store: %w: term %d has invalid kind %d", ErrCorruptSnapshot, i, kind)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: %w: term %d length: %w", ErrCorruptSnapshot, i, err)
		}
		if n > 1<<24 || n > uint64(br.Len()) {
			return nil, fmt.Errorf("store: %w: term %d is implausibly long (%d bytes, %d remain)", ErrCorruptSnapshot, i, n, br.Len())
		}
		if uint64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("store: %w: term %d value: %w", ErrCorruptSnapshot, i, err)
		}
		id := d.Encode(rdf.Term{Kind: rdf.TermKind(kind), Value: string(buf)})
		if id != dict.ID(i+1) {
			return nil, fmt.Errorf("store: %w: dictionary has duplicate term %q", ErrCorruptSnapshot, buf)
		}
	}

	numTriples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: %w: triple count: %w", ErrCorruptSnapshot, err)
	}
	// A gap-compressed triple costs at least two bytes after the first.
	if numTriples > uint64(br.Len())/2+1 {
		return nil, fmt.Errorf("store: %w: triple count %d exceeds %d remaining payload bytes", ErrCorruptSnapshot, numTriples, br.Len())
	}
	b := NewBuilder(d)
	var prev Triple
	for i := uint64(0); i < numTriples; i++ {
		var t Triple
		if i == 0 {
			for j := 0; j < 3; j++ {
				v, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("store: %w: triple %d component %d: %w", ErrCorruptSnapshot, i, j, err)
				}
				t[j] = v
			}
		} else {
			dfb, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("store: %w: triple %d delta header: %w", ErrCorruptSnapshot, i, err)
			}
			df := int(dfb)
			if df > 2 {
				return nil, fmt.Errorf("store: %w: triple %d has bad delta header %d", ErrCorruptSnapshot, i, df)
			}
			t = prev
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("store: %w: triple %d gap: %w", ErrCorruptSnapshot, i, err)
			}
			// A gap beyond the dictionary cannot resolve to a real term;
			// rejecting it here also rules out uint64 wraparound below.
			if delta > dictLen {
				return nil, fmt.Errorf("store: %w: triple %d gap %d exceeds dictionary size %d", ErrCorruptSnapshot, i, delta, dictLen)
			}
			t[df] = prev[df] + delta
			for j := df + 1; j < 3; j++ {
				v, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("store: %w: triple %d component %d: %w", ErrCorruptSnapshot, i, j, err)
				}
				t[j] = v
			}
		}
		for _, v := range t {
			if v == dict.Invalid || v > dictLen {
				return nil, fmt.Errorf("store: %w: triple %d references unknown term %d (dictionary has %d)", ErrCorruptSnapshot, i, v, dictLen)
			}
		}
		b.AddIDs(t[S], t[P], t[O])
		prev = t
	}

	if br.Len() != 0 {
		return nil, fmt.Errorf("store: %w: %d trailing bytes after last triple", ErrCorruptSnapshot, br.Len())
	}
	return NewSnapshot(b.Build(), epoch), nil
}
