package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly()+(Options{TestOnly: 1}).TestOnly != 3 {
		t.Fatal("TestOnly")
	}
}
