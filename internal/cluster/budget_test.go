package cluster

import "testing"

func TestBucketCredit(t *testing.T) {
	b := &bucket{burst: 2}
	if b.take(1) {
		t.Fatal("a new budget granted a token")
	}
	for i := 0; i < 4; i++ {
		b.credit(0.25)
	}
	if !b.take(1) {
		t.Fatal("4 credits of 0.25 must grant one token")
	}
	// Credits cap at burst.
	for i := 0; i < 100; i++ {
		b.credit(1)
	}
	if !b.take(2) {
		t.Fatal("credits must cap at burst (2)")
	}
	if b.take(1) {
		t.Fatal("credits exceeded burst cap")
	}
}
