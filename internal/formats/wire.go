package formats

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"

	"genogo/internal/gdm"
)

// The dataset wire stream is how the federation protocol (user datasets,
// staged-result chunks, whole-dataset downloads) and the Internet-of-Genomes
// crawler move datasets. It is a thin binary framing around the .gdmc sample
// image, so disk and wire share one region codec: every value keeps its kind
// exactly, and each sample's regions are covered by the image's own index and
// partition CRC32Cs.
//
// Stream layout (all integers little-endian):
//
//	magic    "GDMW01" (6)
//	name     u32 length · bytes
//	schema   u32 field count · per field: u32 length · name · kind (u8)
//	samples  u32 count · per sample:
//	           u32 length · ID
//	           u32 pair count · per metadata pair, in Metadata.Pairs order:
//	             u32 length · attribute · u32 length · value
//	           u64 length · .gdmc image of the sample's regions
//	trailer  crc32c over every preceding byte (u32)
//
// Regions are grouped by chromosome in order of first appearance, the .gdmc
// rule, so canonically ordered samples round-trip in identical order. The
// decoder accepts only the bytes the encoder writes: the trailer is
// mandatory, nothing may follow it, and a stream that decodes re-encodes to
// the same bytes.

// wireMagic opens every dataset wire stream.
var wireMagic = []byte("GDMW01")

// appendWireString appends a u32 length-prefixed string.
func appendWireString(b []byte, s string) []byte {
	return append(appendUint32(b, uint32(len(s))), s...)
}

// EncodeDataset writes the whole dataset as one self-describing stream (see
// the layout above), ending with the whole-stream CRC32C trailer.
func EncodeDataset(w io.Writer, ds *gdm.Dataset) error {
	arity := ds.Schema.Len()
	if arity > maxSchemaFields {
		return fmt.Errorf("encode dataset %s: %d schema fields exceeds limit %d", ds.Name, arity, maxSchemaFields)
	}
	bw := bufio.NewWriter(w)
	h := crc32.New(castagnoli)
	hw := io.MultiWriter(bw, h)
	b := append([]byte(nil), wireMagic...)
	b = appendWireString(b, ds.Name)
	b = appendUint32(b, uint32(arity))
	for _, f := range ds.Schema.Fields() {
		b = append(appendWireString(b, f.Name), byte(f.Type))
	}
	b = appendUint32(b, uint32(len(ds.Samples)))
	hw.Write(b)
	var img []byte // one image buffer, reused across samples
	for _, s := range ds.Samples {
		var err error
		if img, err = appendColumnarSample(img[:0], s, arity); err != nil {
			return fmt.Errorf("encode dataset %s: %w", ds.Name, err)
		}
		pairs := s.Meta.Pairs()
		b = appendWireString(b[:0], s.ID)
		b = appendUint32(b, uint32(len(pairs)))
		for _, p := range pairs {
			b = appendWireString(appendWireString(b, p[0]), p[1])
		}
		b = appendUint64(b, uint64(len(img)))
		hw.Write(b)
		hw.Write(img)
	}
	bw.Write(appendUint32(b[:0], h.Sum32()))
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("encode dataset %s: %w", ds.Name, err)
	}
	return nil
}

// DecodeDataset reads a stream produced by EncodeDataset. Every fault — a
// CRC32C mismatch in a sample image or in the trailer, a truncation, a
// missing trailer, trailing bytes, a value whose kind contradicts the schema —
// fails with a typed *IntegrityError. The stream is consumed as it arrives,
// holding one sample image at a time, and a declared count or length never
// allocates more than the bytes that actually arrive back it.
func DecodeDataset(r io.Reader) (*gdm.Dataset, error) {
	ds, ie := decodeWire(&wireReader{r: bufio.NewReader(r), h: crc32.New(castagnoli)})
	if ie != nil {
		if ie.Reason == ReasonChecksum {
			metricStreamChecksumFailures.Inc()
			metricIntegrityFailures.With(string(ReasonChecksum)).Inc()
		}
		return nil, ie
	}
	return ds, nil
}

// wireChunk bounds how far the scratch buffer grows ahead of the bytes that
// have actually arrived.
const wireChunk = 64 << 10

// wireReader consumes a stream, hashing every byte it hands out. The first
// fault sticks: later reads return zero values, so a decode checks err once
// per record.
type wireReader struct {
	r       *bufio.Reader
	h       hash.Hash32
	off     int64
	buf     []byte // scratch for the latest bytes call, reused
	dataset string
	err     *IntegrityError
}

func (r *wireReader) fail(reason FaultReason, format string, args ...any) {
	if r.err == nil {
		r.err = &IntegrityError{Dataset: r.dataset, Path: "stream", Reason: reason,
			Detail: fmt.Sprintf(format, args...)}
	}
}

// bytes consumes n bytes into the scratch buffer, valid until the next call.
// The buffer grows a chunk at a time as bytes arrive, so a declared length
// far beyond the stream's end fails after reading what is there.
func (r *wireReader) bytes(n uint64, what string) []byte {
	r.buf = r.buf[:0]
	for k := uint64(0); k < n && r.err == nil; k = uint64(len(r.buf)) {
		step := int(min(n-k, wireChunk))
		r.buf = slices.Grow(r.buf, step)[:int(k)+step]
		if got, err := io.ReadFull(r.r, r.buf[k:]); err != nil {
			r.fail(ReasonTruncated, "%s needs %d bytes at offset %d, the stream ends after %d: %v",
				what, n, r.off, int(k)+got, err)
		}
	}
	if r.err != nil {
		return nil
	}
	r.h.Write(r.buf)
	r.off += int64(n)
	return r.buf
}

func (r *wireReader) u32(what string) uint32 {
	if b := r.bytes(4, what); r.err == nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *wireReader) u64(what string) uint64 {
	if b := r.bytes(8, what); r.err == nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *wireReader) str(what string) string {
	return string(r.bytes(uint64(r.u32(what)), what))
}

// decodeWire decodes a whole stream.
func decodeWire(r *wireReader) (*gdm.Dataset, *IntegrityError) {
	if magic := r.bytes(uint64(len(wireMagic)), "magic"); r.err == nil && string(magic) != string(wireMagic) {
		r.fail(ReasonParse, "bad magic %q", magic)
	}
	r.dataset = r.str("dataset name")
	nFields := int(r.u32("schema field count"))
	if nFields > maxSchemaFields {
		r.fail(ReasonParse, "declared %d schema fields exceeds limit %d", nFields, maxSchemaFields)
	}
	var fields []gdm.Field
	for i := 0; i < nFields && r.err == nil; i++ {
		f := gdm.Field{Name: r.str("schema field name")}
		if k := r.bytes(1, "schema field kind"); r.err == nil {
			if f.Type = gdm.Kind(k[0]); f.Type > gdm.KindBool {
				r.fail(ReasonParse, "schema field %q has kind tag %d", f.Name, k[0])
			}
		}
		fields = append(fields, f)
	}
	schema, err := gdm.NewSchema(fields...)
	if err != nil {
		r.fail(ReasonParse, "%v", err)
	}
	if r.err != nil {
		return nil, r.err
	}
	ds := gdm.NewDataset(r.dataset, schema)
	nSamples := r.u32("sample count")
	for si := uint32(0); si < nSamples && r.err == nil; si++ {
		id := r.str("sample ID")
		md := gdm.NewMetadata()
		var prev [2]string
		for i, n := uint32(0), r.u32("metadata pair count"); i < n && r.err == nil; i++ {
			p := [2]string{r.str("metadata attribute"), r.str("metadata value")}
			// Pairs travel in Metadata.Pairs order; anything else (a
			// duplicate included) is not a stream this encoder wrote.
			if i > 0 && (p[0] < prev[0] || p[0] == prev[0] && p[1] <= prev[1]) {
				r.fail(ReasonParse, "sample %s: metadata pair %d out of order", id, i)
			}
			md.Add(p[0], p[1])
			prev = p
		}
		img := r.bytes(r.u64("regions image length"), "regions image")
		if r.err != nil {
			break
		}
		s, ie := decodeColumnarSample(ds.Name, "stream sample "+id, id, img, schema)
		if ie != nil {
			r.err = ie
			break
		}
		s.Meta = md
		if err := ds.Add(s); err != nil {
			r.fail(ReasonParse, "%v", err)
		}
	}
	sum := r.h.Sum32()
	if trailer := r.bytes(4, "stream trailer"); r.err == nil {
		if declared := binary.LittleEndian.Uint32(trailer); declared != sum {
			r.fail(ReasonChecksum, "stream crc32c %s != declared %s", crcHex(sum), crcHex(declared))
		} else if _, err := r.r.ReadByte(); err != io.EOF {
			r.fail(ReasonParse, "bytes follow the stream trailer at offset %d", r.off)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return ds, nil
}
