package cliutil

import "testing"

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"262144", 262144, false},
		{"256K", 256 << 10, false},
		{"256k", 256 << 10, false},
		{"64M", 64 << 20, false},
		{"64MB", 64 << 20, false},
		{"2G", 2 << 30, false},
		{" 16m ", 16 << 20, false},
		{"-1", 0, true},
		{"64X", 0, true},
		{"lots", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseByteSize(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseByteSize(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParsePanelWidth(t *testing.T) {
	cases := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{" 8 ", 8, false},
		{"32", 32, false},
		{"-4", 0, true},
		{"wide", 0, true},
		{"auto", 0, true},
	}
	for _, tc := range cases {
		got, err := ParsePanelWidth(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParsePanelWidth(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("ParsePanelWidth(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
