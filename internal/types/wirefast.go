package types

import (
	"encoding/binary"
	"sync"
)

// This file is the pooled fast-path wire codec. Gob is convenient but
// hostile to a hot path: every encode walks reflection metadata and
// every frame allocates type descriptors, wire-type maps and
// intermediate buffers. The consensus hot frames (proposal, vote,
// decide) have fixed, simple layouts, so they get a hand-rolled
// binary codec instead: encoders append into a pooled buffer the
// transport returns after the write, and decoders read out of the
// receive buffer with bounds checks, copying only the variable-length
// fields the message keeps. Everything else (view change, recovery,
// snapshots — cold paths) stays on gob.
//
// Layouts are little-endian fixed-width integers and u32
// length-prefixed byte strings. Optional pointers carry a presence
// byte so structurally invalid messages round-trip to the validation
// layer instead of panicking an encoder. The codec changes no signing
// payload and no WireSize accounting — it is a transport encoding
// only, invisible to the simulator and the golden hashes.

// maxRetainedWireBuf bounds the buffers the pool retains; anything
// bigger (a snapshot-sized outlier) is left for the collector.
const maxRetainedWireBuf = 1 << 20

var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetWireBuf returns a pooled, length-zero byte buffer. Pass it back
// to PutWireBuf when the encoded bytes have been written out.
func GetWireBuf() *[]byte {
	bp := wireBufPool.Get().(*[]byte)
	if cap(*bp) == 0 {
		*bp = make([]byte, 0, 4096)
	}
	*bp = (*bp)[:0]
	return bp
}

// PutWireBuf returns a buffer to the pool. Oversized buffers are
// dropped so one huge frame does not pin its capacity forever.
func PutWireBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxRetainedWireBuf {
		return
	}
	wireBufPool.Put(bp)
}

// --- append-style encoders --------------------------------------------

// WireAppendU8 appends one byte.
func WireAppendU8(b []byte, v byte) []byte { return append(b, v) }

// WireAppendU32 appends a fixed-width little-endian uint32.
func WireAppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// WireAppendU64 appends a fixed-width little-endian uint64.
func WireAppendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// WireAppendBytes appends a u32 length prefix and the bytes.
func WireAppendBytes(b []byte, p []byte) []byte {
	b = WireAppendU32(b, uint32(len(p)))
	return append(b, p...)
}

// WireAppendHash appends the 32 raw digest bytes.
func WireAppendHash(b []byte, h Hash) []byte { return append(b, h[:]...) }

// --- bounds-checked decoder -------------------------------------------

// WireReader decodes the fast binary layout. All reads are bounds
// checked; the first failure latches Err and every later read returns
// zero values, so decoders can run straight-line and check the error
// once at the end. Byte strings are copied out — the backing receive
// buffer is pooled and reused after decode.
type WireReader struct {
	buf []byte
	bad bool
}

// NewWireReader wraps buf for decoding. The reader borrows buf; it
// never writes to it and never retains it past the reads.
func NewWireReader(buf []byte) *WireReader { return &WireReader{buf: buf} }

// Err reports whether any read ran past the buffer or a length bound.
func (r *WireReader) Err() bool { return r.bad }

// Len returns the unread byte count.
func (r *WireReader) Len() int { return len(r.buf) }

func (r *WireReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.buf) {
		r.bad = true
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// U8 reads one byte.
func (r *WireReader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *WireReader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *WireReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Hash reads 32 raw digest bytes.
func (r *WireReader) Hash() Hash {
	var h Hash
	copy(h[:], r.take(32))
	return h
}

// Bytes reads a u32-length-prefixed byte string of at most max bytes,
// copying it out of the borrowed buffer. An empty string decodes as
// nil, matching gob's round-trip of empty slices.
func (r *WireReader) Bytes(max int) []byte {
	n := int(r.U32())
	if n > max {
		r.bad = true
		return nil
	}
	b := r.take(n)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// --- shared structure codecs ------------------------------------------

// AppendWireTransaction encodes one transaction.
func AppendWireTransaction(b []byte, tx *Transaction) []byte {
	b = WireAppendU32(b, uint32(tx.Client))
	b = WireAppendU32(b, tx.Seq)
	b = WireAppendU64(b, uint64(tx.Created))
	return WireAppendBytes(b, tx.Payload)
}

// ReadWireTransaction decodes one transaction in place.
func ReadWireTransaction(r *WireReader, tx *Transaction) {
	tx.Client = NodeID(int32(r.U32()))
	tx.Seq = r.U32()
	tx.Created = Time(r.U64())
	tx.Payload = r.Bytes(MaxWireTxPayload)
}

// AppendWireBlock encodes a block (nil-safe via a presence byte).
func AppendWireBlock(b []byte, blk *Block) []byte {
	if blk == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, blk.Parent)
	b = WireAppendU64(b, uint64(blk.View))
	b = WireAppendU64(b, uint64(blk.Height))
	b = WireAppendU32(b, uint32(blk.Proposer))
	b = WireAppendU64(b, uint64(blk.Proposed))
	b = WireAppendBytes(b, blk.Op)
	b = WireAppendU32(b, uint32(len(blk.Txs)))
	for i := range blk.Txs {
		b = AppendWireTransaction(b, &blk.Txs[i])
	}
	return b
}

// ReadWireBlock decodes a block, or nil when absent.
func ReadWireBlock(r *WireReader) *Block {
	if r.U8() == 0 {
		return nil
	}
	blk := &Block{}
	blk.Parent = r.Hash()
	blk.View = View(r.U64())
	blk.Height = Height(r.U64())
	blk.Proposer = NodeID(int32(r.U32()))
	blk.Proposed = Time(r.U64())
	blk.Op = r.Bytes(MaxWireOp)
	n := int(r.U32())
	if n > MaxWireTxs {
		r.bad = true
		return nil
	}
	// Guard the allocation against a forged count: each transaction
	// needs at least its fixed fields on the wire.
	if n > 0 {
		if r.Len()/16 < n {
			r.bad = true
			return nil
		}
		blk.Txs = make([]Transaction, n)
		for i := range blk.Txs {
			ReadWireTransaction(r, &blk.Txs[i])
		}
	}
	return blk
}

// AppendWireBlockCert encodes a block certificate (nil-safe).
func AppendWireBlockCert(b []byte, c *BlockCert) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.Hash)
	b = WireAppendU64(b, uint64(c.View))
	b = WireAppendU64(b, uint64(c.Height))
	b = WireAppendU32(b, uint32(c.Signer))
	return WireAppendBytes(b, c.Sig)
}

// ReadWireBlockCert decodes a block certificate, or nil when absent.
func ReadWireBlockCert(r *WireReader) *BlockCert {
	if r.U8() == 0 {
		return nil
	}
	return &BlockCert{
		Hash:   r.Hash(),
		View:   View(r.U64()),
		Height: Height(r.U64()),
		Signer: NodeID(int32(r.U32())),
		Sig:    r.Bytes(MaxWireSig),
	}
}

// AppendWireStoreCert encodes a store certificate (nil-safe).
func AppendWireStoreCert(b []byte, c *StoreCert) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.Hash)
	b = WireAppendU64(b, uint64(c.View))
	b = WireAppendU64(b, uint64(c.Height))
	b = WireAppendU32(b, uint32(c.Signer))
	return WireAppendBytes(b, c.Sig)
}

// ReadWireStoreCert decodes a store certificate, or nil when absent.
func ReadWireStoreCert(r *WireReader) *StoreCert {
	if r.U8() == 0 {
		return nil
	}
	return &StoreCert{
		Hash:   r.Hash(),
		View:   View(r.U64()),
		Height: Height(r.U64()),
		Signer: NodeID(int32(r.U32())),
		Sig:    r.Bytes(MaxWireSig),
	}
}

// AppendWireCommitCert encodes a commitment certificate (nil-safe).
func AppendWireCommitCert(b []byte, c *CommitCert) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.Hash)
	b = WireAppendU64(b, uint64(c.View))
	b = WireAppendU64(b, uint64(c.Height))
	b = WireAppendU32(b, uint32(len(c.Signers)))
	for _, id := range c.Signers {
		b = WireAppendU32(b, uint32(id))
	}
	b = WireAppendU32(b, uint32(len(c.Sigs)))
	for _, sig := range c.Sigs {
		b = WireAppendBytes(b, sig)
	}
	return b
}

// ReadWireCommitCert decodes a commitment certificate, or nil when
// absent.
func ReadWireCommitCert(r *WireReader) *CommitCert {
	if r.U8() == 0 {
		return nil
	}
	c := &CommitCert{
		Hash:   r.Hash(),
		View:   View(r.U64()),
		Height: Height(r.U64()),
	}
	n := int(r.U32())
	if n > MaxWireSigners || r.Len()/4 < n {
		r.bad = true
		return nil
	}
	if n > 0 {
		c.Signers = make([]NodeID, n)
		for i := range c.Signers {
			c.Signers[i] = NodeID(int32(r.U32()))
		}
	}
	n = int(r.U32())
	if n > MaxWireSigners || r.Len()/4 < n {
		r.bad = true
		return nil
	}
	if n > 0 {
		c.Sigs = make([]Signature, n)
		for i := range c.Sigs {
			c.Sigs[i] = r.Bytes(MaxWireSig)
		}
	}
	return c
}

// --- fast-wire message registry ---------------------------------------

// FastWireMessage is implemented by hot-path messages that speak the
// pooled binary codec. WireTag identifies the concrete type on the
// wire (one byte, unique across all registered messages); AppendWire
// appends the body. A registered decoder (RegisterFastWire) must
// reverse it exactly.
type FastWireMessage interface {
	Message
	WireTag() byte
	AppendWire(b []byte) []byte
}

var fastWireDecoders [256]func(r *WireReader) (Message, error)

// RegisterFastWire installs the decoder for one message tag. Call
// from init functions only — the table is read without locks on every
// received frame.
func RegisterFastWire(tag byte, dec func(r *WireReader) (Message, error)) {
	if fastWireDecoders[tag] != nil {
		panic("types: duplicate fast-wire tag")
	}
	fastWireDecoders[tag] = dec
}

// FastWireDecoder returns the decoder registered for tag, or nil.
// A nil result on the encode side means "fall back to gob".
func FastWireDecoder(tag byte) func(r *WireReader) (Message, error) {
	return fastWireDecoders[tag]
}
