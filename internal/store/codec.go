package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"graphmatch/internal/graph"
)

// Binary wire formats of the durability subsystem. Everything on disk
// is framed records:
//
//	uint32  payload length (little endian)
//	[]byte  payload
//	uint32  CRC-32C of the payload (Castagnoli)
//
// so every record — WAL ops and snapshot graphs alike — carries its own
// checksum and a torn or corrupted write is detected at the record that
// suffered it, never propagated past it. Payloads are versioned: the
// graph codec leads with a format byte, so the encoding can evolve
// without invalidating existing stores.

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms phomd serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes rejects implausible record lengths before allocating:
// a corrupted length prefix must not ask the replayer for gigabytes.
const maxRecordBytes = 1 << 30

// graphCodecVersion is the current graph payload format.
const graphCodecVersion = 1

// errCorrupt tags integrity failures (bad CRC, short payloads, codec
// violations) so the replayer can distinguish "damaged record" from
// I/O errors.
type errCorrupt struct{ msg string }

func (e errCorrupt) Error() string { return "store: corrupt record: " + e.msg }

func corruptf(format string, args ...any) error {
	return errCorrupt{msg: fmt.Sprintf(format, args...)}
}

// IsCorrupt reports whether err is a record-integrity failure (checksum
// mismatch, truncated payload, malformed encoding) rather than an I/O
// error.
func IsCorrupt(err error) bool {
	_, ok := err.(errCorrupt)
	return ok
}

// writeRecord frames payload onto w. Oversized payloads are rejected
// before a byte is written: readRecord refuses lengths past
// maxRecordBytes, so writing one would fsync and acknowledge a record
// that the next boot silently truncates away (and past 4 GiB the
// uint32 length header itself would wrap, corrupting the framing).
func writeRecord(w io.Writer, payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("store: record of %d bytes exceeds the %d limit", len(payload), maxRecordBytes)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(hdr[:])
	return err
}

// recordSize is the on-disk footprint of a framed payload.
func recordSize(payload []byte) int64 { return int64(len(payload)) + 8 }

// readRecord reads one framed record from r. It returns io.EOF cleanly
// at end of input, io.ErrUnexpectedEOF when the input ends mid-record
// (a torn tail write), and an errCorrupt when the checksum disagrees.
func readRecord(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF at a record boundary is the clean end
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxRecordBytes {
		return nil, corruptf("record length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(hdr[:]); got != want {
		return nil, corruptf("checksum %08x != %08x", got, want)
	}
	return payload, nil
}

// The exported codec surface: the replication protocol frames its
// wire messages with the same length+payload+CRC records the WAL
// uses, and ships WAL op payloads verbatim, so internal/repl needs the
// record framing and the op/graph codecs without owning a copy.

// WriteFramed frames payload onto w as one store record (length,
// payload, CRC-32C).
func WriteFramed(w io.Writer, payload []byte) error { return writeRecord(w, payload) }

// ReadFramed reads one framed record from r, validating its checksum.
// It returns io.EOF at a clean end, io.ErrUnexpectedEOF mid-record,
// and an error satisfying IsCorrupt on a checksum mismatch.
func ReadFramed(r io.Reader) ([]byte, error) { return readRecord(r) }

// EncodeOp serialises op into a WAL record payload.
func EncodeOp(op Op) ([]byte, error) { return encodeOp(op) }

// DecodeOp parses a WAL record payload.
func DecodeOp(payload []byte) (Op, error) { return decodeOp(payload) }

// EncodeNamedGraph serialises a (name, graph) pair: one snapshot graph
// record, and the replication bootstrap's unit of transfer.
func EncodeNamedGraph(name string, g *graph.Graph) []byte {
	e := &enc{buf: make([]byte, 0, 1024)}
	e.str(name)
	encodeGraph(e, g)
	return e.buf
}

// DecodeNamedGraph parses a payload written by EncodeNamedGraph.
func DecodeNamedGraph(payload []byte) (string, *graph.Graph, error) {
	d := &dec{buf: payload}
	name, err := d.str()
	if err != nil {
		return "", nil, err
	}
	g, err := decodeGraph(d)
	if err != nil {
		return "", nil, err
	}
	if d.remaining() != 0 {
		return "", nil, corruptf("%d trailing bytes after graph", d.remaining())
	}
	return name, g, nil
}

// enc is an append-only payload builder.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)          { e.buf = append(e.buf, v) }
func (e *enc) u64(v uint64)        { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) uvarint(v int)       { e.buf = binary.AppendUvarint(e.buf, uint64(v)) }
func (e *enc) str(s string)        { e.uvarint(len(s)); e.buf = append(e.buf, s...) }
func (e *enc) f64(v float64)       { e.u64(math.Float64bits(v)) }
func (e *enc) node(v graph.NodeID) { e.uvarint(int(v)) }

// dec is the matching cursor decoder; every read validates bounds and
// fails with errCorrupt instead of panicking, because the bytes come
// straight off disk.
type dec struct {
	buf []byte
	off int
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) u8() (uint8, error) {
	if d.remaining() < 1 {
		return 0, corruptf("truncated payload at offset %d", d.off)
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *dec) u64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, corruptf("truncated payload at offset %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *dec) uvarint() (int, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, corruptf("bad uvarint at offset %d", d.off)
	}
	if v > maxRecordBytes {
		return 0, corruptf("uvarint %d exceeds limit", v)
	}
	d.off += n
	return int(v), nil
}

func (d *dec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if d.remaining() < n {
		return "", corruptf("string of %d bytes overruns payload", n)
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *dec) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *dec) node() (graph.NodeID, error) {
	v, err := d.uvarint()
	return graph.NodeID(v), err
}

// encodeGraph appends the versioned binary encoding of g: node records
// (label, weight, content) then the sorted edge list. It is a fraction
// of the JSON wire format's size and decodes without reflection, which
// is what makes snapshot replay beat re-registering from JSON.
func encodeGraph(e *enc, g *graph.Graph) {
	e.u8(graphCodecVersion)
	n := g.NumNodes()
	e.uvarint(n)
	for v := 0; v < n; v++ {
		nd := g.Node(graph.NodeID(v))
		e.str(nd.Label)
		e.f64(nd.Weight)
		e.str(nd.Content)
	}
	e.uvarint(g.NumEdges())
	g.Edges(func(from, to graph.NodeID) bool {
		e.node(from)
		e.node(to)
		return true
	})
}

// Smallest encodings of one node record (empty label, 8-byte weight,
// empty content) and one edge (two one-byte IDs): decodeGraph bounds
// its counts by them before allocating.
const (
	minNodeBytes = 1 + 8 + 1
	minEdgeBytes = 2
)

// decodeGraph reads one encoded graph. Nodes and edges are read into
// flat slices and handed to graph.FromEdges, which keeps the rows of a
// snapshot — written in (from, to) order — without sorting them.
func decodeGraph(d *dec) (*graph.Graph, error) {
	ver, err := d.u8()
	if err != nil {
		return nil, err
	}
	if ver != graphCodecVersion {
		return nil, corruptf("graph codec version %d (supported: %d)", ver, graphCodecVersion)
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > d.remaining()/minNodeBytes {
		return nil, corruptf("%d nodes cannot fit in %d bytes", n, d.remaining())
	}
	nodes := make([]graph.Node, n)
	for v := range nodes {
		nd := &nodes[v]
		if nd.Label, err = d.str(); err != nil {
			return nil, err
		}
		if nd.Weight, err = d.f64(); err != nil {
			return nil, err
		}
		if nd.Content, err = d.str(); err != nil {
			return nil, err
		}
	}
	m, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if m > d.remaining()/minEdgeBytes {
		return nil, corruptf("%d edges cannot fit in %d bytes", m, d.remaining())
	}
	edges := make([][2]graph.NodeID, m)
	for i := range edges {
		from, err := d.node()
		if err != nil {
			return nil, err
		}
		to, err := d.node()
		if err != nil {
			return nil, err
		}
		if int(from) >= n || int(to) >= n {
			return nil, corruptf("edge %d→%d outside [0,%d)", from, to, n)
		}
		edges[i] = [2]graph.NodeID{from, to}
	}
	return graph.FromEdges(nodes, edges), nil
}

// encodePatch appends the binary encoding of p.
func encodePatch(e *enc, p *graph.Patch) {
	e.uvarint(len(p.AddNodes))
	for _, nd := range p.AddNodes {
		e.str(nd.Label)
		e.f64(nd.Weight)
		e.str(nd.Content)
	}
	e.uvarint(len(p.SetContent))
	for _, cu := range p.SetContent {
		e.node(cu.Node)
		e.str(cu.Content)
	}
	e.uvarint(len(p.DelEdges))
	for _, ed := range p.DelEdges {
		e.node(ed[0])
		e.node(ed[1])
	}
	e.uvarint(len(p.AddEdges))
	for _, ed := range p.AddEdges {
		e.node(ed[0])
		e.node(ed[1])
	}
}

// decodePatch reads one encoded patch.
func decodePatch(d *dec) (*graph.Patch, error) {
	p := &graph.Patch{}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var nd graph.Node
		if nd.Label, err = d.str(); err != nil {
			return nil, err
		}
		if nd.Weight, err = d.f64(); err != nil {
			return nil, err
		}
		if nd.Content, err = d.str(); err != nil {
			return nil, err
		}
		p.AddNodes = append(p.AddNodes, nd)
	}
	if n, err = d.uvarint(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var cu graph.ContentUpdate
		if cu.Node, err = d.node(); err != nil {
			return nil, err
		}
		if cu.Content, err = d.str(); err != nil {
			return nil, err
		}
		p.SetContent = append(p.SetContent, cu)
	}
	if n, err = d.uvarint(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var ed [2]graph.NodeID
		if ed[0], err = d.node(); err != nil {
			return nil, err
		}
		if ed[1], err = d.node(); err != nil {
			return nil, err
		}
		p.DelEdges = append(p.DelEdges, ed)
	}
	if n, err = d.uvarint(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var ed [2]graph.NodeID
		if ed[0], err = d.node(); err != nil {
			return nil, err
		}
		if ed[1], err = d.node(); err != nil {
			return nil, err
		}
		p.AddEdges = append(p.AddEdges, ed)
	}
	return p, nil
}

// encodeOp builds the payload of one WAL record.
func encodeOp(op Op) ([]byte, error) {
	e := &enc{buf: make([]byte, 0, 64)}
	e.u64(op.Seq)
	e.u8(uint8(op.Kind))
	e.str(op.Name)
	switch op.Kind {
	case OpRegister:
		if op.Graph == nil {
			return nil, fmt.Errorf("store: register op %q without graph", op.Name)
		}
		encodeGraph(e, op.Graph)
	case OpRemove:
	case OpPatch:
		if op.Patch == nil {
			return nil, fmt.Errorf("store: patch op %q without patch", op.Name)
		}
		encodePatch(e, op.Patch)
	default:
		return nil, fmt.Errorf("store: unknown op kind %d", op.Kind)
	}
	// Trailing optional section: absent entirely for untraced ops so
	// their encoding is byte-identical to the pre-trace format.
	if op.Trace != "" {
		e.str(op.Trace)
	}
	return e.buf, nil
}

// decodeOp parses one WAL record payload.
func decodeOp(payload []byte) (Op, error) {
	d := &dec{buf: payload}
	var op Op
	var err error
	if op.Seq, err = d.u64(); err != nil {
		return Op{}, err
	}
	kind, err := d.u8()
	if err != nil {
		return Op{}, err
	}
	op.Kind = OpKind(kind)
	if op.Name, err = d.str(); err != nil {
		return Op{}, err
	}
	switch op.Kind {
	case OpRegister:
		if op.Graph, err = decodeGraph(d); err != nil {
			return Op{}, err
		}
	case OpRemove:
	case OpPatch:
		if op.Patch, err = decodePatch(d); err != nil {
			return Op{}, err
		}
	default:
		return Op{}, corruptf("unknown op kind %d", kind)
	}
	if d.remaining() > 0 {
		if op.Trace, err = d.str(); err != nil {
			return Op{}, err
		}
	}
	if d.remaining() != 0 {
		return Op{}, corruptf("%d trailing bytes after op", d.remaining())
	}
	return op, nil
}
