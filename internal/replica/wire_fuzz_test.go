package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// readChunk reads data's first line through a bufio.Reader of size bytes
// and parses it as a chunk line, as a bootstrap does.
func readChunk(data []byte, size int) ([]uint64, error) {
	var long []byte
	line, err := readLine(bufio.NewReaderSize(bytes.NewReader(data), size), &long)
	if err != nil {
		return nil, err
	}
	return parseSnapshotChunk(line, nil)
}

// FuzzSnapshotChunk holds the hand-written chunk codec to encoding/json:
// every line the reader accepts decodes to the same numbers under
// encoding/json, and every line the writer produces reads back unchanged.
// The reader runs through a buffer smaller than most lines (the copying
// path) and one larger (the in-buffer path); both must agree.
func FuzzSnapshotChunk(f *testing.F) {
	long := AppendSnapshotChunk(nil, slices.Repeat([]uint64{18446744073709551615}, 2000))
	for _, seed := range []string{
		`{"kv":[]}` + "\n",
		`{"kv":[1,2,3]}` + "\n",
		`{"kv":[0,0,10,100]}` + "\n",
		`{"kv":[01,2]}` + "\n",
		`{"kv":[18446744073709551615,0]}` + "\n",
		`{"kv":[18446744073709551616,0]}` + "\n",
		`{"kv":[1, 2]}` + "\n",
		`{"kv": [1,2]}` + "\n",
		`{"kv":[1,2]} ` + "\n",
		`{"kv":[1,2` + "\n",
		`{"kv":[1,2,]}` + "\n",
		`{"kv":[-1,2]}` + "\n",
		`{"kv":[1,2]}`,
		`{"done":true,"count":3}` + "\n",
		string(long),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		small, errSmall := readChunk(data, 16)
		large, errLarge := readChunk(data, 4096)
		if (errSmall == nil) != (errLarge == nil) || !slices.Equal(small, large) {
			t.Fatalf("buffer sizes disagree: %v (%v) against %v (%v)", small, errSmall, large, errLarge)
		}
		if errSmall == nil {
			line, _, _ := bytes.Cut(data, []byte("\n"))
			var c SnapshotChunk
			if err := json.Unmarshal(line, &c); err != nil || c.Done || !slices.Equal(c.KV, small) {
				t.Fatalf("reader accepted %.80q as %v; encoding/json reads %+v (%v)", line, small, c, err)
			}
		}

		nums := make([]uint64, len(data)/8)
		for i := range nums {
			nums[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		line := AppendSnapshotChunk(nil, nums)
		if strings.Count(string(line), "\n") != 1 {
			t.Fatalf("writer produced %q, want one newline-terminated line", line)
		}
		for _, size := range []int{16, 4096} {
			got, err := readChunk(line, size)
			if err != nil || !slices.Equal(got, nums) {
				t.Fatalf("writer's %.80q read back as %v (%v) through %d bytes, want %v", line, got, err, size, nums)
			}
		}
	})
}
