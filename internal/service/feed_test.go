package service

import (
	"errors"
	"testing"
)

// TestNewNodeRefusesFeedlessBackend pins where followability is decided:
// a backend whose executors cannot publish gets no node — so no /v1/watch
// over a feed nothing writes, and no follower that reads lag 0 forever.
func TestNewNodeRefusesFeedlessBackend(t *testing.T) {
	for _, spec := range []string{"onefile-hash", "ponefile-hash", "plain-skip", "txoff-skip"} {
		n, err := NewNode(NodeConfig{Backend: kvBackend(t, spec)})
		if !errors.Is(err, ErrNoFeed) {
			t.Errorf("NewNode over %s = %v, want ErrNoFeed", spec, err)
		}
		if n != nil {
			n.Close()
		}
	}
}
