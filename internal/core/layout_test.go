package core

import (
	"testing"
	"unsafe"
)

// TestWitnessLayout pins what every read of a transaction appends to its
// read set: the Word it loaded and the word it saw, 16 bytes, validated
// with no indirect call. A field added to ReadWitness fails here, by name,
// and not as a validation cost three layers up.
func TestWitnessLayout(t *testing.T) {
	if s := unsafe.Sizeof(ReadWitness{}); s != 16 {
		t.Errorf("ReadWitness is %d bytes, want 16", s)
	}
}
