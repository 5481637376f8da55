package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// formatStrings mixes plain identifiers with everything json.Marshal
// escapes: quotes, backslashes, control and HTML-sensitive characters,
// U+2028/U+2029, other non-ASCII, and invalid UTF-8.
var formatStrings = []string{
	"", "exec", "vdb", "log", "q-set", "in-commit",
	`say "hi"`, `back\slash`, "tab\tnew\nline", "\x00\x1f\x7f",
	"<script>&amp;</script>", "line sep para", "héllo 世界", "bad\xffutf8\xc3",
}

func randString(r *rand.Rand) string {
	if r.Intn(3) == 0 {
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	}
	return formatStrings[r.Intn(len(formatStrings))]
}

func randInt(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return -r.Int63()
	default:
		return r.Int63()
	}
}

// randValue builds a random JSON-encodable value, nesting up to depth.
func randValue(r *rand.Rand, depth int) any {
	k := r.Intn(7)
	if depth == 0 {
		k %= 4
	}
	switch k {
	case 0:
		return randString(r)
	case 1:
		return randInt(r)
	case 2:
		return r.Intn(2) == 0
	case 3:
		return nil
	case 4:
		return r.NormFloat64() * 1e6
	case 5:
		m := map[string]any{}
		for i := r.Intn(4); i > 0; i-- {
			m[randString(r)] = randValue(r, depth-1)
		}
		return m
	default:
		a := make([]any, r.Intn(4))
		for i := range a {
			a[i] = randValue(r, depth-1)
		}
		return a
	}
}

func randEntry(t *testing.T, r *rand.Rand) Entry {
	e := Entry{Seq: uint64(r.Int63()), Kind: randString(r), Clock: randInt(r), IDs: randInt(r)}
	if r.Intn(5) == 0 {
		e.Seq = 0
	}
	switch r.Intn(4) {
	case 0: // nil ops
	case 1:
		e.Ops = []Op{}
	default:
		for i := r.Intn(5) + 1; i > 0; i-- {
			op := Op{Kind: randString(r)}
			switch r.Intn(4) {
			case 0: // nil data
			case 1:
				op.Data = json.RawMessage{}
			default:
				data, err := json.Marshal(randValue(r, 3))
				if err != nil {
					t.Fatalf("marshal op data: %v", err)
				}
				op.Data = data
			}
			e.Ops = append(e.Ops, op)
		}
	}
	return e
}

// TestEntryEncodingMatchesMarshal: the writer's direct envelope encoding is
// byte-identical to json.Marshal(Entry) for any entry whose op payloads are
// json.Marshal output, so segments, replay, and checkpoints see exactly the
// bytes the reflective encoder wrote.
func TestEntryEncodingMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		e := randEntry(t, r)
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("entry %d: json.Marshal: %v", i, err)
		}
		if got := appendEntry(nil, &e); !bytes.Equal(got, want) {
			t.Fatalf("entry %d (%+v):\n got %s\nwant %s", i, e, got, want)
		}
	}
}

// TestAppendWritesMarshalBytes: a frame the writer appends carries exactly
// json.Marshal(Entry) as its payload, including on a reused frame buffer.
func TestAppendWritesMarshalBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	var want []Entry
	for i := 0; i < 50; i++ {
		e := randEntry(t, r)
		seq, err := w.Append(e.Kind, e.Clock, e.IDs, e.Ops)
		if err != nil {
			t.Fatal(err)
		}
		e.Seq = seq
		want = append(want, e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want one", segs, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[headerSize:]
	for i := range want {
		n := binary.BigEndian.Uint32(raw[0:4])
		payload := raw[frameSize : frameSize+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[4:8]) {
			t.Fatalf("entry %d: bad frame checksum", i)
		}
		if w, _ := json.Marshal(want[i]); !bytes.Equal(payload, w) {
			t.Fatalf("entry %d payload:\n got %s\nwant %s", i, payload, w)
		}
		raw = raw[frameSize+n:]
	}
	if len(raw) != 0 {
		t.Fatalf("%d trailing bytes after %d frames", len(raw), len(want))
	}
}
