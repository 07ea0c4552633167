package canon

import (
	"bytes"
	"testing"
)

func TestAppendLenPrefixedSelfDelimiting(t *testing.T) {
	join := func(parts ...string) []byte {
		var buf []byte
		for _, p := range parts {
			buf = AppendLenPrefixed(buf, p)
		}
		return buf
	}
	if bytes.Equal(join("ab", "c"), join("a", "bc")) {
		t.Error("length prefixes should keep component boundaries distinct")
	}
	if bytes.Equal(join("", "x"), join("x", "")) {
		t.Error("empty components must still delimit")
	}
	if !bytes.Equal(join("ab", "c"), join("ab", "c")) {
		t.Error("encoding should be deterministic")
	}
}
