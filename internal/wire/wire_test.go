package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestMagicRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(strings.NewReader("HWLIDX02")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign magic: err = %v, want ErrBadMagic", err)
	}
	if err := ReadMagic(strings.NewReader("HWL")); err == nil {
		t.Fatal("truncated magic: want error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payloads := map[Type][]byte{
		TDistance: AppendPair(nil, 7, 1234567),
		TBatch:    AppendPairs(nil, [][2]int32{{0, 1}, {2, 3}, {-1, 1 << 30}}),
		TPing:     nil,
		TError:    AppendError(nil, CodeRange, "vertex 9 out of range"),
	}
	order := []Type{TDistance, TBatch, TPing, TError}
	for _, typ := range order {
		if err := w.WriteFrame(typ, payloads[typ]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()), 0)
	for _, want := range order {
		typ, p, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != want {
			t.Fatalf("type = %v, want %v", typ, want)
		}
		if !bytes.Equal(p, payloads[want]) {
			t.Fatalf("%v payload = %x, want %x", want, p, payloads[want])
		}
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameChecksumAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(TDistance, AppendPair(nil, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one payload byte: the checksum must catch it.
	bad := append([]byte(nil), raw...)
	bad[6] ^= 0x40
	if _, _, err := NewReader(bytes.NewReader(bad), 0).ReadFrame(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame: err = %v, want ErrChecksum", err)
	}

	// Every possible truncation of a valid frame is a loud error (EOF
	// only on the empty prefix — a clean close between frames).
	for cut := 1; cut < len(raw); cut++ {
		_, _, err := NewReader(bytes.NewReader(raw[:cut]), 0).ReadFrame()
		if err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) decoded", cut, len(raw))
		}
		if cut >= 5 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame (%d/%d bytes): err = %v, want ErrUnexpectedEOF", cut, len(raw), err)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	// A hostile length prefix must be rejected without allocating the
	// claimed size.
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31)
	hdr[4] = byte(TDistance)
	if _, _, err := NewReader(bytes.NewReader(hdr[:]), 0).ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	// A reader-local limit below MaxFrame is enforced too.
	binary.LittleEndian.PutUint32(hdr[0:4], 1024)
	if _, _, err := NewReader(bytes.NewReader(hdr[:]), 64).ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over local limit: err = %v, want ErrFrameTooLarge", err)
	}
	// Zero-length frames cannot exist: the type byte is part of the
	// length.
	binary.LittleEndian.PutUint32(hdr[0:4], 0)
	if _, _, err := NewReader(bytes.NewReader(hdr[:4]), 0).ReadFrame(); err == nil {
		t.Fatal("zero-length frame decoded")
	}
	// Writer refuses to emit what readers would reject.
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(TBatch, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestWriteFrameParts: a payload written as two parts is the frame of
// the two joined.
func TestWriteFrameParts(t *testing.T) {
	head, body := AppendReplSnapshot(nil, 9, true, nil), []byte("the chunk, written as it is")
	var joined, parts bytes.Buffer
	wj, w := NewWriter(&joined), NewWriter(&parts)
	if err := wj.WriteFrame(TReplSnapshot, append(bytes.Clone(head), body...)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrameParts(TReplSnapshot, head, body); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(wj.Flush(), w.Flush()); err != nil {
		t.Fatal(err)
	}
	if joined.Len() == 0 || !bytes.Equal(parts.Bytes(), joined.Bytes()) {
		t.Fatalf("parts %x, joined %x", parts.Bytes(), joined.Bytes())
	}
	if err := w.WriteFrameParts(TReplSnapshot, head, make([]byte, MaxFrame-len(head))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized parts: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestReaderReleasesLargeFrames: the buffer a frame of 1 MiB and a bit
// grew — 1 MiB, then the frame's length — is let go once the frame has
// been handled, and the reader holds at most MaxRetained after; small
// frames keep reusing theirs.
func TestReaderReleasesLargeFrames(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, 1<<20+1<<18)
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, p := range [][]byte{big, AppendPair(nil, 1, 2), AppendPair(nil, 3, 4)} {
		if err := w.WriteFrame(TBatch, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// TotalAlloc counts every goroutine's allocations, and the others' only
	// add to a reader's, so the least over a few fresh readers of the same
	// stream is what reading the frame allocates.
	var r *Reader
	used := ^uint64(0)
	for range 5 {
		r = NewReader(bytes.NewReader(stream.Bytes()), 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, p, err := r.ReadFrame()
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(p, big) {
			t.Fatalf("%d-byte frame: %v", len(big), err)
		}
		used = min(used, after.TotalAlloc-before.TotalAlloc)
	}
	if used > firstStep+uint64(len(big))+1<<10 {
		t.Fatalf("reading a %d-byte frame allocated %d bytes", len(big), used)
	}
	r.Release()
	if held := cap(r.buf); held > MaxRetained {
		t.Fatalf("after the %d-byte frame the reader holds %d bytes", len(big), held)
	}
	_, p1, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	_, p2, err := r.ReadFrame()
	if err != nil || &p1[0] != &p2[0] {
		t.Fatalf("a point frame's buffer was not reused (%v)", err)
	}
}

func TestPayloadCodecs(t *testing.T) {
	pairs := [][2]int32{{0, 0}, {5, 9}, {1 << 20, -1}}
	got, err := DecodePairs(AppendPairs(nil, pairs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], pairs[i])
		}
	}
	// Count/length mismatch is an error, not a guess.
	enc := AppendPairs(nil, pairs)
	if _, err := DecodePairs(enc[:len(enc)-1], nil); err == nil {
		t.Fatal("short pairs payload decoded")
	}
	binary.LittleEndian.PutUint32(enc[0:4], 99)
	if _, err := DecodePairs(enc, nil); err == nil {
		t.Fatal("overcounted pairs payload decoded")
	}

	ds := []int32{3, -1, 0, 1 << 30}
	dsGot, err := DecodeDistances(AppendDistances(nil, ds), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if dsGot[i] != ds[i] {
			t.Fatalf("distance %d = %d, want %d", i, dsGot[i], ds[i])
		}
	}

	s, tt, err := DecodePair(AppendPair(nil, 12, 34))
	if err != nil || s != 12 || tt != 34 {
		t.Fatalf("DecodePair = (%d,%d,%v), want (12,34,nil)", s, tt, err)
	}
	d, err := DecodeDistance(AppendDistance(nil, -1))
	if err != nil || d != -1 {
		t.Fatalf("DecodeDistance = (%d,%v), want (-1,nil)", d, err)
	}
	a, ins, ep, err := DecodeInsertResult(AppendInsertResult(nil, 3, 2, 77))
	if err != nil || a != 3 || ins != 2 || ep != 77 {
		t.Fatalf("DecodeInsertResult = (%d,%d,%d,%v)", a, ins, ep, err)
	}
	code, msg, err := DecodeError(AppendError(nil, CodeTooLarge, "big"))
	if err != nil || code != CodeTooLarge || msg != "big" {
		t.Fatalf("DecodeError = (%v,%q,%v)", code, msg, err)
	}
	for _, p := range [][]byte{nil, {1}, {1, 2, 3}} {
		if _, err := DecodeDistance(p); err == nil {
			t.Fatalf("DecodeDistance(%x) decoded", p)
		}
	}
	if _, _, _, err := DecodeInsertResult([]byte{1, 2, 3}); err == nil {
		t.Fatal("short insert result decoded")
	}
	if _, _, err := DecodeError([]byte{1}); err == nil {
		t.Fatal("short error payload decoded")
	}
}

func TestDecodeReusesBuffers(t *testing.T) {
	pairs := make([][2]int32, 8)
	enc := AppendPairs(nil, [][2]int32{{1, 2}})
	got, err := DecodePairs(enc, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &pairs[0] {
		t.Fatal("DecodePairs allocated despite a large-enough dst")
	}
	ds := make([]int32, 8)
	dsEnc := AppendDistances(nil, []int32{4})
	dsGot, err := DecodeDistances(dsEnc, ds)
	if err != nil {
		t.Fatal(err)
	}
	if &dsGot[0] != &ds[0] {
		t.Fatal("DecodeDistances allocated despite a large-enough dst")
	}
}

func TestTypeAndCodeStrings(t *testing.T) {
	if TBatch.String() != "Batch" || TError.String() != "Error" {
		t.Fatalf("Type.String: %v %v", TBatch, TError)
	}
	if got := Type(0x77).String(); got != "Type(0x77)" {
		t.Fatalf("unknown type renders %q", got)
	}
	if CodeReadOnly.String() != "ReadOnly" {
		t.Fatalf("ErrorCode.String: %v", CodeReadOnly)
	}
	if got := ErrorCode(99).String(); got != "ErrorCode(99)" {
		t.Fatalf("unknown code renders %q", got)
	}
	re := &RemoteError{Code: CodeRange, Message: "vertex 12 out of range [0,6)"}
	if !strings.Contains(re.Error(), "Range") || !strings.Contains(re.Error(), "vertex 12") {
		t.Fatalf("RemoteError renders %q", re.Error())
	}
}

// FuzzReadFrame holds the frame decoder total on arbitrary bytes: no
// panic, no allocation driven by a hostile length prefix, and anything
// it accepts must re-encode to the same frame (decode∘encode identity
// on the accepted set). CI runs this target in the fuzz job.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	_ = w.WriteFrame(TDistance, AppendPair(nil, 1, 2))
	_ = w.WriteFrame(TBatch, AppendPairs(nil, [][2]int32{{1, 2}, {3, 4}}))
	_ = w.WriteFrame(TError, AppendError(nil, CodeMalformed, "x"))
	_ = w.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), 0)
		for {
			typ, payload, err := r.ReadFrame()
			if err != nil {
				return
			}
			// Accepted frames must round-trip byte-identically.
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteFrame(typ, payload); err != nil {
				t.Fatalf("re-encoding accepted frame: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			typ2, p2, err := NewReader(bytes.NewReader(buf.Bytes()), 0).ReadFrame()
			if err != nil || typ2 != typ || !bytes.Equal(p2, payload) {
				t.Fatalf("round trip diverged: (%v,%x,%v) vs (%v,%x)", typ2, p2, err, typ, payload)
			}
			// Payload decoders must be total on whatever the framing
			// layer accepts.
			switch typ {
			case TDistance:
				_, _, _ = DecodePair(payload)
			case TBatch, TInsert, TDelete:
				_, _ = DecodePairs(payload, nil)
			case TDistanceResp:
				_, _ = DecodeDistance(payload)
			case TBatchResp:
				_, _ = DecodeDistances(payload, nil)
			case TInsertResp:
				_, _, _, _ = DecodeInsertResult(payload)
			case TDeleteResp:
				_, _, _, _ = DecodeDeleteResult(payload)
			case TError:
				_, _, _ = DecodeError(payload)
			}
		}
	})
}

// FuzzDeleteFrame holds the deletion frame's payload codecs total on
// arbitrary bytes: DecodePairs (a Delete request reuses the Insert pair
// array) and DecodeDeleteResult must never panic, and any payload they
// accept must re-encode byte-identically. CI runs this target in the
// fuzz job next to FuzzReadFrame.
func FuzzDeleteFrame(f *testing.F) {
	f.Add(AppendPairs(nil, [][2]int32{{1, 2}, {3, 4}}))
	f.Add(AppendPairs(nil, nil))
	f.Add(AppendDeleteResult(nil, 2, 1, 7))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if pairs, err := DecodePairs(data, nil); err == nil {
			if re := AppendPairs(nil, pairs); !bytes.Equal(re, data) {
				t.Fatalf("accepted Delete payload does not round-trip: %x -> %x", data, re)
			}
		}
		if acc, del, epoch, err := DecodeDeleteResult(data); err == nil {
			if re := AppendDeleteResult(nil, acc, del, epoch); !bytes.Equal(re, data) {
				t.Fatalf("accepted DeleteResp payload does not round-trip: %x -> %x", data, re)
			}
		}
	})
}

func TestReplCodecs(t *testing.T) {
	ops := [][2]int32{{1, 2}, {^int32(3), ^int32(4)}, {5, 5}}
	epoch, got, err := DecodeReplAppend(AppendReplAppend(nil, 42, ops), nil)
	if err != nil || epoch != 42 {
		t.Fatalf("DecodeReplAppend: epoch=%d err=%v", epoch, err)
	}
	if len(got) != len(ops) || got[1] != ops[1] {
		t.Fatalf("DecodeReplAppend pairs diverged: %v vs %v", got, ops)
	}
	if _, _, err := DecodeReplAppend([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("short repl append payload accepted")
	}

	if e, err := DecodeReplAck(AppendReplAck(nil, 7)); err != nil || e != 7 {
		t.Fatalf("DecodeReplAck: %d, %v", e, err)
	}
	if _, err := DecodeReplAck([]byte{1}); err == nil {
		t.Fatal("short repl ack payload accepted")
	}

	chunk := []byte("snapshot-bytes")
	e, done, c, err := DecodeReplSnapshot(AppendReplSnapshot(nil, 9, true, chunk))
	if err != nil || e != 9 || !done || string(c) != string(chunk) {
		t.Fatalf("DecodeReplSnapshot: epoch=%d done=%v chunk=%q err=%v", e, done, c, err)
	}
	e, done, c, err = DecodeReplSnapshot(AppendReplSnapshot(nil, 9, false, nil))
	if err != nil || e != 9 || done || len(c) != 0 {
		t.Fatalf("DecodeReplSnapshot empty chunk: epoch=%d done=%v chunk=%q err=%v", e, done, c, err)
	}
	if _, _, _, err := DecodeReplSnapshot([]byte{0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("8-byte repl snapshot payload accepted")
	}
	bad := AppendReplSnapshot(nil, 1, false, nil)
	bad[8] = 2
	if _, _, _, err := DecodeReplSnapshot(bad); err == nil {
		t.Fatal("done flag 2 accepted")
	}
}

// FuzzReplFrame holds the replication codecs total on arbitrary bytes:
// DecodeReplAppend, DecodeReplAck and DecodeReplSnapshot must never
// panic, and any payload they accept must re-encode byte-identically.
// CI runs this target in the fuzz job next to FuzzDeleteFrame.
func FuzzReplFrame(f *testing.F) {
	f.Add(AppendReplAppend(nil, 42, [][2]int32{{1, 2}, {^int32(3), ^int32(4)}}))
	f.Add(AppendReplAck(nil, 7))
	f.Add(AppendReplSnapshot(nil, 9, true, []byte("chunk")))
	f.Add(AppendReplSnapshot(nil, 9, false, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if epoch, ops, err := DecodeReplAppend(data, nil); err == nil {
			if re := AppendReplAppend(nil, epoch, ops); !bytes.Equal(re, data) {
				t.Fatalf("accepted ReplAppend payload does not round-trip: %x -> %x", data, re)
			}
		}
		if epoch, err := DecodeReplAck(data); err == nil {
			if re := AppendReplAck(nil, epoch); !bytes.Equal(re, data) {
				t.Fatalf("accepted ReplAck payload does not round-trip: %x -> %x", data, re)
			}
		}
		if epoch, done, chunk, err := DecodeReplSnapshot(data); err == nil {
			if re := AppendReplSnapshot(nil, epoch, done, chunk); !bytes.Equal(re, data) {
				t.Fatalf("accepted ReplSnapshot payload does not round-trip: %x -> %x", data, re)
			}
		}
	})
}
