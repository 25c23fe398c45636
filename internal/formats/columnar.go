package formats

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// The columnar layout is the binary sibling of the native text layout: the
// same directory shape (schema.txt, <sample>.gdm.meta, manifest.json with
// Layout: "columnar"), but each sample's regions live in a <sample>.gdmc file
// partitioned by chromosome — the on-disk realization of the catalog's
// per-(sample, chromosome) zone cells. A partition stores its fixed columns
// (start, stop, strand) as packed little-endian arrays followed by a
// length-prefixed attribute block, and the file's index records every
// partition's zone window [MinStart, MaxStop) next to its byte extent, so a
// reader can skip a partition a query's coordinate window provably cannot
// touch without reading (or checksumming) a single payload byte.
//
// File layout (all integers little-endian):
//
//	header   magic "GDMC01" (6) · attr arity (u16) · partition count (u32)
//	index    per partition: chrom len (u16) · chrom · regions (u32) ·
//	         minStart (i64) · maxStop (i64) · payload offset (i64) ·
//	         payload length (i64) · payload crc32c (u32)
//	crc      crc32c over header+index (u32)
//	payload  per partition, contiguous, in index order:
//	         starts (regions × i64) · stops (regions × i64) ·
//	         strands (regions × i8) · attribute columns, column-major:
//	         per value a kind tag byte, then int i64 / float bits i64 /
//	         bool u8 / string u32 length + bytes / nothing for null
//
// Every section (the index, each partition payload) carries its own CRC32C,
// so damage is detected exactly as precisely as it can be skipped: a pruned
// read verifies the index and only the partitions it actually loads, a full
// read verifies everything, and the manifest additionally records the whole
// file's size and checksum for fsck's end-to-end pass.

// Layout names a dataset's on-disk representation, recorded in the manifest.
const (
	// LayoutNative is the text layout; the manifest field's zero value, so
	// every pre-columnar manifest reads as native.
	LayoutNative = ""
	// LayoutColumnar is the binary columnar layout.
	LayoutColumnar = "columnar"
)

// columnarExt is the region-file extension of the columnar layout.
const columnarExt = ".gdmc"

// columnarMagic opens every .gdmc file.
var columnarMagic = []byte("GDMC01")

// Hostile-input bounds for the columnar decoder: a crafted file must fail
// with a typed error, not drive a huge allocation.
const (
	// maxColumnarParts caps the partitions one sample file may declare.
	maxColumnarParts = 1 << 20
	// maxColumnarChrom caps a chromosome name's length.
	maxColumnarChrom = 1 << 12
	// columnarHeaderLen is the fixed header size.
	columnarHeaderLen = 6 + 2 + 4
	// columnarEntryFixed is the fixed part of one index entry (everything but
	// the chromosome name).
	columnarEntryFixed = 2 + 4 + 8 + 8 + 8 + 8 + 4
)

// columnarPart is one decoded index entry: a (sample, chromosome) partition's
// zone window and byte extent.
type columnarPart struct {
	Chrom    string
	Regions  int
	MinStart int64
	MaxStop  int64
	Offset   int64
	Length   int64
	CRC      uint32
}

// minRegionBytes is the smallest possible payload footprint of one region:
// start + stop + strand plus one kind tag per attribute.
func minRegionBytes(arity int) int64 { return 17 + int64(arity) }

// ---------------------------------------------------------------------------
// Encoding

// appendUint16/32/64 are the little-endian writers of the encoder.
func appendUint16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encodeColumnarSample serializes one sample's regions into a .gdmc image.
// Regions are grouped by chromosome in order of first appearance (canonical
// genomic order for canonically sorted samples); a region's attribute arity
// must match the schema's.
func encodeColumnarSample(s *gdm.Sample, arity int) ([]byte, error) {
	return appendColumnarSample(nil, s, arity)
}

// appendColumnarSample appends the sample's .gdmc image to dst, so a caller
// encoding many samples can reuse one buffer.
func appendColumnarSample(dst []byte, s *gdm.Sample, arity int) ([]byte, error) {
	type partBuild struct {
		chrom    string
		idx      []int32
		minStart int64
		maxStop  int64
		length   int64
		crc      uint32
	}
	var parts []*partBuild
	byChrom := make(map[string]*partBuild)
	for i := range s.Regions {
		r := &s.Regions[i]
		if len(r.Values) != arity {
			return nil, fmt.Errorf("columnar: sample %s region %d has %d attributes, schema has %d",
				s.ID, i, len(r.Values), arity)
		}
		p := byChrom[r.Chrom]
		if p == nil {
			p = &partBuild{chrom: r.Chrom, minStart: r.Start, maxStop: r.Stop}
			byChrom[r.Chrom] = p
			parts = append(parts, p)
		}
		p.idx = append(p.idx, int32(i))
		p.minStart, p.maxStop = min(p.minStart, r.Start), max(p.maxStop, r.Stop)
	}
	if len(parts) > maxColumnarParts {
		return nil, fmt.Errorf("columnar: sample %s has %d partitions, limit %d", s.ID, len(parts), maxColumnarParts)
	}

	// The index size is known from the chromosome names alone, so the index
	// is reserved first and filled in once the payloads have their offsets.
	indexLen := int64(columnarHeaderLen)
	for _, p := range parts {
		if len(p.chrom) > maxColumnarChrom {
			return nil, fmt.Errorf("columnar: sample %s chromosome name exceeds %d bytes", s.ID, maxColumnarChrom)
		}
		indexLen += columnarEntryFixed + int64(len(p.chrom))
	}
	indexLen += 4 // index crc
	base := len(dst)
	dst = append(dst, make([]byte, indexLen)...)

	// Payload sections, one per partition.
	for _, p := range parts {
		start := len(dst)
		for _, ri := range p.idx {
			dst = appendUint64(dst, uint64(s.Regions[ri].Start))
		}
		for _, ri := range p.idx {
			dst = appendUint64(dst, uint64(s.Regions[ri].Stop))
		}
		for _, ri := range p.idx {
			dst = append(dst, byte(int8(s.Regions[ri].Strand)))
		}
		for ai := 0; ai < arity; ai++ {
			for _, ri := range p.idx {
				v := s.Regions[ri].Values[ai]
				dst = append(dst, byte(v.Kind()))
				switch v.Kind() {
				case gdm.KindNull:
				case gdm.KindInt:
					dst = appendUint64(dst, uint64(v.Int()))
				case gdm.KindFloat:
					dst = appendUint64(dst, math.Float64bits(v.Float()))
				case gdm.KindString:
					str := v.Str()
					if int64(len(str)) > math.MaxUint32 {
						return nil, fmt.Errorf("columnar: sample %s: string value exceeds encodable length", s.ID)
					}
					dst = appendUint32(dst, uint32(len(str)))
					dst = append(dst, str...)
				case gdm.KindBool:
					if v.Bool() {
						dst = append(dst, 1)
					} else {
						dst = append(dst, 0)
					}
				default:
					return nil, fmt.Errorf("columnar: sample %s: unencodable value kind %d", s.ID, v.Kind())
				}
			}
		}
		p.length = int64(len(dst) - start)
		p.crc = crc32.Checksum(dst[start:], castagnoli)
	}

	// Header + index, written into the reserved window.
	out := dst[base : base : base+int(indexLen)]
	out = append(out, columnarMagic...)
	out = appendUint16(out, uint16(arity))
	out = appendUint32(out, uint32(len(parts)))
	offset := indexLen
	for _, p := range parts {
		out = appendUint16(out, uint16(len(p.chrom)))
		out = append(out, p.chrom...)
		out = appendUint32(out, uint32(len(p.idx)))
		out = appendUint64(out, uint64(p.minStart))
		out = appendUint64(out, uint64(p.maxStop))
		out = appendUint64(out, uint64(offset))
		out = appendUint64(out, uint64(p.length))
		out = appendUint32(out, p.crc)
		offset += p.length
	}
	appendUint32(out, crc32.Checksum(out, castagnoli)) // the window's last 4 bytes
	return dst, nil
}

// writeColumnarFile materializes one sample's .gdmc, fsynced, and returns its
// manifest entry. Binary files carry no text footer; the manifest records the
// whole file's size and CRC32C instead (the internal section checksums make
// the file self-verifying on their own).
func writeColumnarFile(path string, s *gdm.Sample, arity int) (FileInfo, error) {
	data, err := encodeColumnarSample(s, arity)
	if err != nil {
		return FileInfo{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return FileInfo{}, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return FileInfo{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return FileInfo{}, err
	}
	if err := f.Close(); err != nil {
		return FileInfo{}, err
	}
	return columnarFileInfo(data), nil
}

// columnarFileInfo is a columnar image's manifest entry: whole-file size and
// whole-file CRC32C (binary files carry no text footer).
func columnarFileInfo(data []byte) FileInfo {
	return FileInfo{Size: int64(len(data)), CRC32C: crcHex(crc32.Checksum(data, castagnoli))}
}

// ---------------------------------------------------------------------------
// Decoding

// columnarIndex is a parsed .gdmc header+index.
type columnarIndex struct {
	Arity    int
	IndexLen int64 // bytes from file start through the index CRC
	Parts    []columnarPart
}

// parseColumnarIndex decodes and verifies the header+index section from the
// start of a .gdmc stream. size is the file's total size (for extent bounds
// checking); pass < 0 to skip extent checks (the caller will bound-check
// against the data it has).
func parseColumnarIndex(dataset, path string, r io.Reader, size int64) (*columnarIndex, *IntegrityError) {
	fail := func(reason FaultReason, detail string) *IntegrityError {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: reason, Detail: detail}
	}
	h := crc32.New(castagnoli)
	tr := io.TeeReader(r, h)
	header := make([]byte, columnarHeaderLen)
	if _, err := io.ReadFull(tr, header); err != nil {
		return nil, fail(ReasonTruncated, "file shorter than columnar header")
	}
	if !bytes.Equal(header[:len(columnarMagic)], columnarMagic) {
		return nil, fail(ReasonParse, "bad columnar magic")
	}
	arity := int(binary.LittleEndian.Uint16(header[6:8]))
	nParts := int(binary.LittleEndian.Uint32(header[8:12]))
	if nParts > maxColumnarParts {
		return nil, fail(ReasonParse, fmt.Sprintf("declared %d partitions exceeds limit %d", nParts, maxColumnarParts))
	}
	ci := &columnarIndex{Arity: arity, Parts: make([]columnarPart, 0, nParts)}
	indexLen := int64(columnarHeaderLen)
	entry := make([]byte, columnarEntryFixed-2) // after the chrom length+name
	var prevEnd int64 = -1
	for i := 0; i < nParts; i++ {
		var lenBuf [2]byte
		if _, err := io.ReadFull(tr, lenBuf[:]); err != nil {
			return nil, fail(ReasonTruncated, "index truncated")
		}
		chromLen := int(binary.LittleEndian.Uint16(lenBuf[:]))
		if chromLen > maxColumnarChrom {
			return nil, fail(ReasonParse, fmt.Sprintf("chromosome name length %d exceeds limit %d", chromLen, maxColumnarChrom))
		}
		chrom := make([]byte, chromLen)
		if _, err := io.ReadFull(tr, chrom); err != nil {
			return nil, fail(ReasonTruncated, "index truncated")
		}
		if _, err := io.ReadFull(tr, entry); err != nil {
			return nil, fail(ReasonTruncated, "index truncated")
		}
		p := columnarPart{
			Chrom:    string(chrom),
			Regions:  int(binary.LittleEndian.Uint32(entry[0:4])),
			MinStart: int64(binary.LittleEndian.Uint64(entry[4:12])),
			MaxStop:  int64(binary.LittleEndian.Uint64(entry[12:20])),
			Offset:   int64(binary.LittleEndian.Uint64(entry[20:28])),
			Length:   int64(binary.LittleEndian.Uint64(entry[28:36])),
			CRC:      binary.LittleEndian.Uint32(entry[36:40]),
		}
		indexLen += int64(2 + chromLen + len(entry))
		if p.Regions < 0 || p.Regions > maxDecodeRecords {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s declares %d regions", p.Chrom, p.Regions))
		}
		if p.Offset < 0 || p.Length < 0 || p.Length > math.MaxInt64-p.Offset {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s has invalid byte extent", p.Chrom))
		}
		if int64(p.Regions)*minRegionBytes(arity) > p.Length {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s declares %d regions in %d bytes", p.Chrom, p.Regions, p.Length))
		}
		// Payloads are contiguous and in index order; anything else is not a
		// file this writer produced.
		if prevEnd >= 0 && p.Offset != prevEnd {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s payload is not contiguous", p.Chrom))
		}
		prevEnd = p.Offset + p.Length
		ci.Parts = append(ci.Parts, p)
	}
	sum := h.Sum32() // checksum of everything read so far: header + entries
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fail(ReasonTruncated, "index CRC missing")
	}
	indexLen += 4
	if declared := binary.LittleEndian.Uint32(crcBuf[:]); declared != sum {
		return nil, fail(ReasonChecksum, fmt.Sprintf("index crc32c %s != declared %s", crcHex(sum), crcHex(declared)))
	}
	ci.IndexLen = indexLen
	for i := range ci.Parts {
		// Payloads start right after the index (checked via the first
		// partition — contiguity chains the rest): no unchecksummed gap can
		// hide between sections.
		if i == 0 && ci.Parts[i].Offset != indexLen {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s payload does not follow the index", ci.Parts[i].Chrom))
		}
		if size >= 0 && ci.Parts[i].Offset+ci.Parts[i].Length > size {
			return nil, fail(ReasonTruncated, fmt.Sprintf("partition %s extends past end of file", ci.Parts[i].Chrom))
		}
	}
	return ci, nil
}

// decodeColumnarPart verifies one partition payload against its index entry
// and decodes it, appending the regions to s. Attribute kinds must match the
// schema (or be null) — a mismatch is corruption, never a silent coercion.
func decodeColumnarPart(dataset, path string, p columnarPart, payload []byte, schema *gdm.Schema, s *gdm.Sample) *IntegrityError {
	base := len(s.Regions)
	fail := func(reason FaultReason, detail string) *IntegrityError {
		s.Regions = s.Regions[:base]
		return &IntegrityError{Dataset: dataset, Path: path, Reason: reason,
			Detail: fmt.Sprintf("partition %s: %s", p.Chrom, detail)}
	}
	if int64(len(payload)) != p.Length {
		return fail(ReasonTruncated, fmt.Sprintf("have %d payload bytes, index declares %d", len(payload), p.Length))
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != p.CRC {
		return fail(ReasonChecksum, fmt.Sprintf("payload crc32c %s != declared %s", crcHex(sum), crcHex(p.CRC)))
	}
	n, arity := p.Regions, schema.Len()
	fixed := int64(n) * 17
	if fixed > int64(len(payload)) {
		return fail(ReasonParse, "payload shorter than fixed columns")
	}
	starts := payload[:n*8]
	stops := payload[n*8 : n*16]
	strands := payload[n*16 : n*17]
	s.Regions = append(s.Regions, make([]gdm.Region, n)...)
	regs := s.Regions[base:]
	values := make([]gdm.Value, n*arity)
	// The writer records each partition's tight zone window, so a region
	// outside it (a lying window would make pruning silently wrong), a looser
	// window or an empty partition is not a file it produced.
	minStart, maxStop := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < n; i++ {
		var strand gdm.Strand
		switch int8(strands[i]) {
		case 0:
			strand = gdm.StrandNone
		case 1:
			strand = gdm.StrandPlus
		case -1:
			strand = gdm.StrandMinus
		default:
			return fail(ReasonParse, fmt.Sprintf("region %d has strand byte %d", i, int8(strands[i])))
		}
		regs[i] = gdm.Region{
			Chrom:  p.Chrom,
			Start:  int64(binary.LittleEndian.Uint64(starts[i*8:])),
			Stop:   int64(binary.LittleEndian.Uint64(stops[i*8:])),
			Strand: strand,
			Values: values[i*arity : (i+1)*arity : (i+1)*arity],
		}
		minStart, maxStop = min(minStart, regs[i].Start), max(maxStop, regs[i].Stop)
	}
	if minStart != p.MinStart || maxStop != p.MaxStop {
		return fail(ReasonParse, "declared zone window is not the regions' extent")
	}
	// Attribute columns, column-major. take consumes k bytes of the block.
	cur := payload[n*17:]
	take := func(k int) ([]byte, bool) {
		if k > len(cur) {
			return nil, false
		}
		b := cur[:k]
		cur = cur[k:]
		return b, true
	}
	for ai := 0; ai < arity; ai++ {
		want := schema.Field(ai).Type
		for i := 0; i < n; i++ {
			tag, ok := take(1)
			if !ok {
				return fail(ReasonParse, "attribute block truncated")
			}
			kind := gdm.Kind(tag[0])
			var v gdm.Value
			var b []byte
			switch kind {
			case gdm.KindNull:
			case gdm.KindInt:
				if b, ok = take(8); ok {
					v = gdm.Int(int64(binary.LittleEndian.Uint64(b)))
				}
			case gdm.KindFloat:
				if b, ok = take(8); ok {
					v = gdm.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
				}
			case gdm.KindString:
				if b, ok = take(4); ok {
					if b, ok = take(int(binary.LittleEndian.Uint32(b))); ok {
						v = gdm.Str(string(b))
					}
				}
			case gdm.KindBool:
				if b, ok = take(1); ok && b[0] > 1 {
					return fail(ReasonParse, fmt.Sprintf("attribute %d region %d has bool byte %d", ai, i, b[0]))
				}
				v = gdm.Bool(ok && b[0] == 1)
			default:
				return fail(ReasonParse, fmt.Sprintf("attribute %d region %d has kind tag %d", ai, i, kind))
			}
			if !ok {
				return fail(ReasonParse, "attribute block truncated")
			}
			if kind != gdm.KindNull && kind != want {
				return fail(ReasonParse, fmt.Sprintf("attribute %q is %s, schema wants %s",
					schema.Field(ai).Name, kind, want))
			}
			values[i*arity+ai] = v
		}
	}
	if len(cur) != 0 {
		return fail(ReasonParse, fmt.Sprintf("%d trailing bytes after attribute block", len(cur)))
	}
	return nil
}

// decodeColumnarSample decodes a whole in-memory .gdmc image into a sample —
// the full-read path, the wire stream's region codec and the fuzz target's
// core. Every section checksum is verified, and only images the encoder can
// produce decode (one partition per chromosome, tight zone windows), so a
// decoded sample re-encodes to the same bytes.
func decodeColumnarSample(dataset, path, id string, data []byte, schema *gdm.Schema) (*gdm.Sample, *IntegrityError) {
	ci, ie := parseColumnarIndex(dataset, path, bytes.NewReader(data), int64(len(data)))
	if ie != nil {
		return nil, ie
	}
	if ci.Arity != schema.Len() {
		return nil, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("file declares %d attributes, schema has %d", ci.Arity, schema.Len())}
	}
	seen := make(map[string]bool, len(ci.Parts))
	for _, p := range ci.Parts {
		if seen[p.Chrom] {
			return nil, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse,
				Detail: fmt.Sprintf("chromosome %s has two partitions", p.Chrom)}
		}
		seen[p.Chrom] = true
	}
	s := gdm.NewSample(id)
	n := 0
	for _, p := range ci.Parts {
		n += p.Regions
	}
	s.Regions = make([]gdm.Region, 0, n)
	var end int64 = ci.IndexLen
	for _, p := range ci.Parts {
		if ie := decodeColumnarPart(dataset, path, p, data[p.Offset:p.Offset+p.Length], schema, s); ie != nil {
			return nil, ie
		}
		end = p.Offset + p.Length
	}
	if end != int64(len(data)) {
		return nil, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("%d trailing bytes after last partition", int64(len(data))-end)}
	}
	return s, nil
}

// readColumnarSampleVerified is the full verified read of one columnar
// sample: whole-file manifest check (size and CRC32C), then structural decode
// with every section checksum verified, then the metadata file through the
// text path.
func readColumnarSampleVerified(dir, id string, schema *gdm.Schema, man *Manifest) (*gdm.Sample, *IntegrityError) {
	name := filepath.Base(dir)
	file := id + columnarExt
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing}
		}
		return nil, &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing, Detail: err.Error()}
	}
	if man != nil {
		if ie := checkColumnarManifest(name, path, file, data, man); ie != nil {
			return nil, ie
		}
	}
	s, ie := decodeColumnarSample(name, path, id, data, schema)
	if ie != nil {
		return nil, ie
	}
	if ie := readSampleMeta(dir, id, man, s); ie != nil {
		return nil, ie
	}
	return s, nil
}

// checkColumnarManifest verifies a columnar file's bytes against its manifest
// entry: listed, right size, right whole-file checksum.
func checkColumnarManifest(dataset, path, file string, data []byte, man *Manifest) *IntegrityError {
	want, listed := man.Files[file]
	if !listed {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonStaleManifest,
			Detail: "file not listed in manifest"}
	}
	switch {
	case int64(len(data)) < want.Size:
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonTruncated,
			Detail: fmt.Sprintf("file is %d bytes, manifest records %d", len(data), want.Size)}
	case int64(len(data)) > want.Size:
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonStaleManifest,
			Detail: fmt.Sprintf("file is %d bytes, manifest records %d", len(data), want.Size)}
	}
	if sum := crcHex(crc32.Checksum(data, castagnoli)); sum != want.CRC32C {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonChecksum,
			Detail: fmt.Sprintf("file crc32c %s != manifest %s", sum, want.CRC32C)}
	}
	return nil
}

// readSampleMeta verifies and parses one sample's .gdm.meta into s — the
// metadata half shared by the text and columnar read paths.
func readSampleMeta(dir, id string, man *Manifest, s *gdm.Sample) *IntegrityError {
	name := filepath.Base(dir)
	metaFile := id + ".gdm.meta"
	path := filepath.Join(dir, metaFile)
	payload, info, hasFooter, err := readFileVerified(name, path)
	if err != nil {
		var ie *IntegrityError
		if errors.As(err, &ie) {
			return ie
		}
		if os.IsNotExist(err) {
			if man == nil || !hasManifestEntry(man, metaFile) {
				return nil // metadata is optional when nothing vouches for it
			}
			return &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing}
		}
		return &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing, Detail: err.Error()}
	}
	if man != nil {
		want, listed := man.Files[metaFile]
		if !listed {
			return &IntegrityError{Dataset: name, Path: path, Reason: ReasonStaleManifest,
				Detail: "file not listed in manifest"}
		}
		if !hasFooter {
			return &IntegrityError{Dataset: name, Path: path, Reason: ReasonTruncated,
				Detail: "manifest present but integrity footer missing"}
		}
		if want != info {
			return &IntegrityError{Dataset: name, Path: path, Reason: ReasonStaleManifest,
				Detail: fmt.Sprintf("file is self-consistent (%s, %d bytes) but manifest records %s, %d bytes",
					info.CRC32C, info.Size, want.CRC32C, want.Size)}
		}
	}
	md, merr := ReadMeta(bytes.NewReader(payload))
	if merr != nil {
		return &IntegrityError{Dataset: name, Path: path, Reason: ReasonParse, Detail: merr.Error()}
	}
	s.Meta = md
	return nil
}

// ---------------------------------------------------------------------------
// Pruned (partition-granular) reads

// openColumnarSamplePruned reads one columnar sample loading only the
// partitions keep accepts: the index is read and verified, rejected
// partitions' payload bytes are never read (real skipped I/O, not post-load
// filtering), loaded partitions verify their section CRC. skipped accounts
// what the zone windows proved irrelevant.
func openColumnarSamplePruned(dir, id string, schema *gdm.Schema, man *Manifest,
	keep func(chrom string, minStart, maxStop int64) bool) (*gdm.Sample, catalog.PruneStats, *IntegrityError) {

	name := filepath.Base(dir)
	file := id + columnarExt
	path := filepath.Join(dir, file)
	var st catalog.PruneStats
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing}
		}
		return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing, Detail: err.Error()}
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	if man != nil {
		if want, listed := man.Files[file]; listed && size >= 0 && size != want.Size {
			reason := ReasonStaleManifest
			if size < want.Size {
				reason = ReasonTruncated
			}
			return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: reason,
				Detail: fmt.Sprintf("file is %d bytes, manifest records %d", size, want.Size)}
		}
	}
	ci, ie := parseColumnarIndex(name, path, bufio.NewReader(f), size)
	if ie != nil {
		return nil, st, ie
	}
	if ci.Arity != schema.Len() {
		return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("file declares %d attributes, schema has %d", ci.Arity, schema.Len())}
	}
	s := gdm.NewSample(id)
	var buf []byte
	for _, p := range ci.Parts {
		st.Parts++
		if keep != nil && !keep(p.Chrom, p.MinStart, p.MaxStop) {
			st.SkippedParts++
			st.SkippedRegions += int64(p.Regions)
			st.SkippedBytes += p.Length
			continue
		}
		if int64(cap(buf)) < p.Length {
			buf = make([]byte, p.Length)
		}
		buf = buf[:p.Length]
		if _, err := f.ReadAt(buf, p.Offset); err != nil {
			return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: ReasonTruncated,
				Detail: fmt.Sprintf("partition %s: %v", p.Chrom, err)}
		}
		if ie := decodeColumnarPart(name, path, p, buf, schema, s); ie != nil {
			return nil, st, ie
		}
	}
	if ie := readSampleMeta(dir, id, man, s); ie != nil {
		return nil, st, ie
	}
	return s, st, nil
}

// checkColumnarStructure verifies a columnar image's self-consistency without
// a schema: the index parses, every partition payload matches its declared
// length and CRC, and nothing trails the last partition. fsck uses it to
// distinguish a stale manifest (file fine, manifest wrong — rebuild re-adopts
// the file) from real corruption (quarantine).
func checkColumnarStructure(dataset, path string, data []byte) *IntegrityError {
	ci, ie := parseColumnarIndex(dataset, path, bytes.NewReader(data), int64(len(data)))
	if ie != nil {
		return ie
	}
	end := ci.IndexLen
	for _, p := range ci.Parts {
		if sum := crc32.Checksum(data[p.Offset:p.Offset+p.Length], castagnoli); sum != p.CRC {
			return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonChecksum,
				Detail: fmt.Sprintf("partition %s: payload crc32c %s != declared %s", p.Chrom, crcHex(sum), crcHex(p.CRC))}
		}
		end = p.Offset + p.Length
	}
	if end != int64(len(data)) {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("%d trailing bytes after last partition", int64(len(data))-end)}
	}
	return nil
}

// CheckColumnarStructure is the exported form of the schema-free structural
// check, for chaos harnesses that need to assert a .gdmc image is (or is not)
// self-consistent without opening the whole dataset. Returns nil when the
// image verifies.
func CheckColumnarStructure(dataset, path string, data []byte) error {
	if ie := checkColumnarStructure(dataset, path, data); ie != nil {
		return ie
	}
	return nil
}

// ColumnarSectionOffsets lists the byte offsets where a .gdmc file's
// CRC-protected sections begin: the header/index at 0, then each partition
// payload. The disk-fault injector targets these boundaries to prove
// section-granular damage is detected by exactly the read that would have
// consumed it.
func ColumnarSectionOffsets(path string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	ci, ie := parseColumnarIndex(filepath.Base(filepath.Dir(path)), path, bufio.NewReader(f), size)
	if ie != nil {
		return nil, ie
	}
	offsets := []int64{0}
	for _, p := range ci.Parts {
		offsets = append(offsets, p.Offset)
	}
	return offsets, nil
}

// ---------------------------------------------------------------------------
// Dataset-level write

// WriteDatasetColumnar materializes a dataset into dir using the columnar
// layout, through the same atomic staging path as WriteDataset: every file is
// staged, checksummed and fsynced, the manifest (Layout: "columnar") is
// written last, and the staged directory swaps into place in one rename.
func WriteDatasetColumnar(dir string, ds *gdm.Dataset) error {
	return writeDatasetLayout(dir, ds, LayoutColumnar)
}

// writeColumnarDatasetFiles writes the columnar layout (text schema, binary
// region files, text metadata files) into an existing directory, then the
// manifest recording their checksums and the stats block that doubles as the
// partition index of the catalog.
func writeColumnarDatasetFiles(dir string, ds *gdm.Dataset) error {
	files := make(map[string]FileInfo, 1+2*len(ds.Samples))
	sampleStats := make([]catalog.SampleStats, 0, len(ds.Samples))
	info, err := writeFileWith(filepath.Join(dir, "schema.txt"), func(w io.Writer) error {
		return WriteSchema(w, ds.Schema)
	})
	if err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	files["schema.txt"] = info
	for _, s := range ds.Samples {
		info, err := writeColumnarFile(filepath.Join(dir, s.ID+columnarExt), s, ds.Schema.Len())
		if err != nil {
			return fmt.Errorf("dataset %s sample %s: %w", ds.Name, s.ID, err)
		}
		files[s.ID+columnarExt] = info
		info, err = writeFileWith(filepath.Join(dir, s.ID+".gdm.meta"), func(w io.Writer) error {
			return WriteMeta(w, s.Meta)
		})
		if err != nil {
			return fmt.Errorf("dataset %s sample %s: %w", ds.Name, s.ID, err)
		}
		files[s.ID+".gdm.meta"] = info
		sampleStats = append(sampleStats, catalog.ComputeSample(s))
	}
	crash("pre-manifest")
	m := buildManifest(ds, files, sampleStats)
	m.Layout = LayoutColumnar
	if err := writeManifest(dir, m); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	return nil
}

// detectLayout decides a dataset directory's layout: the manifest's word when
// present, otherwise the presence of .gdmc files (a legacy/manifestless
// columnar directory — still self-verifying through its section checksums).
func detectLayout(dir string, man *Manifest) string {
	if man != nil {
		return man.Layout
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return LayoutNative
	}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == columnarExt {
			return LayoutColumnar
		}
	}
	return LayoutNative
}
