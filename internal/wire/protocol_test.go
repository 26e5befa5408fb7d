package wire

import (
	"bytes"
	"math"
	"testing"

	"dpr/internal/p2p"
)

func TestBatchEpochCodec(t *testing.T) {
	us := []p2p.Update{{Doc: 3, Delta: 0.25}, {Doc: 9, Delta: -1.5}}
	sender, origDest, seq, epoch, out, err := decodeBatchEpoch(encodeBatchEpoch(5, 2, 77, 4, us))
	if err != nil {
		t.Fatal(err)
	}
	if sender != 5 || origDest != 2 || seq != 77 || epoch != 4 || len(out) != 2 || out[0] != us[0] || out[1] != us[1] {
		t.Fatalf("round trip: sender=%d origDest=%d seq=%d epoch=%d %v", sender, origDest, seq, epoch, out)
	}
	// Empty batch is legal.
	sender, origDest, seq, epoch, out, err = decodeBatchEpoch(encodeBatchEpoch(0, 0, 1, 0, nil))
	if err != nil || sender != 0 || origDest != 0 || seq != 1 || epoch != 0 || len(out) != 0 {
		t.Fatalf("empty: sender=%d origDest=%d seq=%d epoch=%d %v %v", sender, origDest, seq, epoch, out, err)
	}
}

func TestBatchEpochCodecRejectsMalformed(t *testing.T) {
	good := encodeBatchEpoch(2, 1, 9, 3, []p2p.Update{{Doc: 1, Delta: 1}})
	negative := append([]byte(nil), good...)
	negative[3] = 0x80 // sender id with the sign bit set
	cases := map[string][]byte{
		"empty":           nil,
		"short header":    good[:batchEpochHeader-1],
		"missing count":   good[:batchEpochHeader],
		"truncated entry": good[:len(good)-5],
		"trailing bytes":  append(append([]byte(nil), good...), 0xff),
		"negative sender": negative,
	}
	for name, b := range cases {
		if _, _, _, _, _, err := decodeBatchEpoch(b); err == nil {
			t.Errorf("%s: accepted %d bytes", name, len(b))
		}
	}
}

func TestCreditCodec(t *testing.T) {
	seq, window, err := decodeCredit(encodeCredit(1<<40, 7))
	if err != nil || seq != 1<<40 || window != 7 {
		t.Fatalf("credit round trip: %d %d %v", seq, window, err)
	}
	for _, n := range []int{0, 8, 11, 13} {
		if _, _, err := decodeCredit(make([]byte, n)); err == nil {
			t.Errorf("accepted %d-byte credit", n)
		}
	}
	if _, _, err := decodeCredit(encodeCredit(3, 0)); err == nil {
		t.Error("accepted a zero credit window")
	}
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2})
	f.Add(encodeBatch(nil))
	f.Add(encodeBatch([]p2p.Update{{Doc: 7, Delta: 0.5}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		us, err := decodeBatch(b)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the same bytes.
		if !bytes.Equal(encodeBatch(us), b) {
			t.Fatalf("decode/encode not idempotent for %x", b)
		}
	})
}

func FuzzDecodeBatchEpoch(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBatchEpoch(0, 0, 0, 0, nil))
	f.Add(encodeBatchEpoch(3, 1, 1<<33, 9, []p2p.Update{{Doc: 1, Delta: math.Inf(1)}}))
	f.Add(append(bytes.Repeat([]byte{0xff}, 4), make([]byte, batchEpochHeader)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		sender, origDest, seq, epoch, us, err := decodeBatchEpoch(b)
		if err != nil {
			return
		}
		if sender < 0 || origDest < 0 {
			t.Fatalf("decoded negative peer id %d/%d", sender, origDest)
		}
		if !bytes.Equal(encodeBatchEpoch(sender, origDest, seq, epoch, us), b) {
			t.Fatalf("decode/encode not idempotent for %x", b)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, frameBatchEpoch, encodeBatchEpoch(1, 2, 3, 0, []p2p.Update{{Doc: 1, Delta: 2}}))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'E'})
	f.Add([]byte{5, 0, 0, 0, 'E', 1, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, err := readFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		// A successful read must reproduce the consumed prefix.
		var out bytes.Buffer
		if err := writeFrame(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), b[:out.Len()]) {
			t.Fatalf("read/write not idempotent for %x", b)
		}
	})
}
