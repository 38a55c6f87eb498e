package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// readFrames reads data's frames up to the zero count, through a
// bufio.Reader of size bytes as a bootstrap does, and returns each
// frame's pairs (key, value, ...) and how many bytes of data they took.
func readFrames(data []byte, size int) (frames [][]uint64, used int, err error) {
	r := bufio.NewReaderSize(bytes.NewReader(data), size)
	buf := make([]byte, SnapshotFrameMax)
	for {
		pairs, err := ReadSnapshotFrame(r, buf)
		if err != nil {
			return frames, used, err
		}
		used += frameHeader + len(pairs)
		if len(pairs) == 0 {
			return frames, used, nil
		}
		var nums []uint64
		for i := range pairs.Len() {
			k, v := pairs.At(i)
			nums = append(nums, k, v)
		}
		frames = append(frames, nums)
	}
}

// writeFrames writes frames as the leader does, through one reused
// SnapshotFrame, and then the zero count.
func writeFrames(frames [][]uint64) []byte {
	var out bytes.Buffer
	f := NewSnapshotFrame()
	for _, nums := range frames {
		for i := 0; i < len(nums); i += 2 {
			f.Add(nums[i], nums[i+1])
		}
		_ = f.Flush(&out)
	}
	_ = f.Flush(&out)
	return out.Bytes()
}

// FuzzSnapshotFrame holds the frame reader and writer to each other: the
// reader accepts only what the writer could have produced (re-encoding
// the frames it read gives back the bytes they took), never panics, and
// refuses a count over SnapshotChunkKeys, a stream cut inside a frame and
// a trailer where the zero count belongs; whatever the writer produces
// reads back unchanged. The reader runs through a buffer smaller than a
// frame header and one larger than most frames; both must agree.
func FuzzSnapshotFrame(f *testing.F) {
	full := slices.Repeat([][]uint64{slices.Repeat([]uint64{1<<64 - 1}, 2*SnapshotChunkKeys)}, 2)
	over := binary.LittleEndian.AppendUint32(nil, SnapshotChunkKeys+1)
	over = append(over, make([]byte, pairBytes*(SnapshotChunkKeys+1)+frameHeader)...)
	oneFrame := writeFrames([][]uint64{{1, 2}})
	bad := [][]byte{
		over,
		oneFrame[:len(oneFrame)-7], // cut inside a frame
		append(oneFrame[:len(oneFrame)-frameHeader:len(oneFrame)-frameHeader], `{"done":true,"count":1}`+"\n"...),
	}
	for _, data := range bad {
		if frames, _, err := readFrames(data, 4096); err == nil {
			f.Fatalf("reader accepted %.40x as %d frames", data, len(frames))
		}
	}
	for _, seed := range append(bad,
		nil,
		oneFrame[:2], // cut inside the count
		binary.LittleEndian.AppendUint32(nil, SnapshotChunkKeys), // a full count, no pairs
		[]byte{0, 0, 0, 1},          // a big-endian 1
		[]byte(`{"kv":[1,2]}`+"\n"), // a text chunk line
		writeFrames(nil),
		oneFrame,
		writeFrames([][]uint64{{1, 2, 3, 4}, {5, 6}}),
		writeFrames([][]uint64{{0, 1<<64 - 1}, {1 << 63, 1}}),
		writeFrames(full),
		append(writeFrames([][]uint64{{1, 2}}), `{"done":true,"count":1}`+"\n"...), // the trailer after the zero count
		append(writeFrames(nil), oneFrame...),                                      // frames after the zero count
	) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		small, usedSmall, errSmall := readFrames(data, 16)
		large, usedLarge, errLarge := readFrames(data, 4096)
		if (errSmall == nil) != (errLarge == nil) || usedSmall != usedLarge || !slices.EqualFunc(small, large, slices.Equal) {
			t.Fatalf("buffer sizes disagree: %v (%v) against %v (%v)", small, errSmall, large, errLarge)
		}
		if errSmall == nil {
			if again := writeFrames(small); !bytes.Equal(again, data[:usedSmall]) {
				t.Fatalf("reader accepted %x as %v, which the writer encodes as %x", data[:usedSmall], small, again)
			}
		}

		// The writer's turn: data as pairs, in frames of sizes data picks.
		var frames [][]uint64
		for i := 0; i+pairBytes <= len(data); {
			n := 1 + int(data[i])*SnapshotChunkKeys/256
			var nums []uint64
			for ; n > 0 && i+pairBytes <= len(data); n, i = n-1, i+pairBytes {
				nums = append(nums, binary.LittleEndian.Uint64(data[i:]), binary.LittleEndian.Uint64(data[i+8:]))
			}
			frames = append(frames, nums)
		}
		out := writeFrames(frames)
		for _, size := range []int{16, 4096} {
			got, used, err := readFrames(out, size)
			if err != nil || used != len(out) || !slices.EqualFunc(got, frames, slices.Equal) {
				t.Fatalf("writer's %d bytes read back as %v (%v, %d bytes) through %d bytes, want %v", len(out), got, err, used, size, frames)
			}
		}
	})
}
