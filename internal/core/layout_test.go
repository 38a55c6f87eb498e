package core

import (
	"testing"
	"unsafe"
)

// TestCellLayout pins the sizes the store's footprint is made of, so that a
// field added to a cell fails here, by the struct's name, and not as a heap
// number three layers up. A value cell is what every link of a structure at
// rest costs beyond its 8-byte CASObj: the value and a generation whose bit
// 0 is the kind, as in the paper's 16-byte CASObj. A ReadWitness is what
// every read of a transaction appends to its read set.
func TestCellLayout(t *testing.T) {
	type link struct { // the skiplists' ref: pointer plus mark
		node *int
		mark bool
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"cell[pointer+bool] (value cell of a marked link)", unsafe.Sizeof(cell[link]{}), 24},
		{"cell[pointer] (value cell of a plain link)", unsafe.Sizeof(cell[unsafe.Pointer]{}), 16},
		{"descCell[pointer+bool] (descriptor cell, one allocation)", unsafe.Sizeof(descCell[link]{}), 56},
		{"ReadWitness", unsafe.Sizeof(ReadWitness{}), 32},
		{"CASObj[pointer+bool]", unsafe.Sizeof(CASObj[link]{}), 8},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}
