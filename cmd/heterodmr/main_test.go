package main

import (
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	entries, err := resolve("fig11,tab1,abl-ecc")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.ID)
	}
	if strings.Join(got, ",") != "fig11,tab1,abl-ecc" {
		t.Errorf("resolved %v, want the ids in the order given", got)
	}
}

func TestResolveRejects(t *testing.T) {
	for list, want := range map[string]string{
		"tab1,,fig2":         "empty experiment id",
		",tab1":              "empty experiment id",
		"tab1,":              "empty experiment id",
		"tab1,fig99,abl-nop": `"fig99"`,
	} {
		_, err := resolve(list)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("resolve(%q) error %v, want one mentioning %s", list, err, want)
		}
	}
}
