package expmodel

import "testing"

func TestPracticeRoundTrip(t *testing.T) {
	for _, p := range []Practice{PracticeCanary, PracticeDarkLaunch, PracticeABTest, PracticeGradualRollout, PracticeBlueGreen} {
		got, err := ParsePractice(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v -> %q -> %v (%v)", p, p.String(), got, err)
		}
	}
	if Practice(42).String() == "" {
		t.Error("unknown practice should still stringify")
	}
}

func TestParsePracticeAliases(t *testing.T) {
	tests := []struct {
		in   string
		want Practice
	}{
		{"dark", PracticeDarkLaunch},
		{"shadow", PracticeDarkLaunch},
		{"AB", PracticeABTest},
		{"a/b", PracticeABTest},
		{"gradual", PracticeGradualRollout},
		{"DARK_LAUNCH", PracticeDarkLaunch},
		{"  canary  ", PracticeCanary},
	}
	for _, tt := range tests {
		got, err := ParsePractice(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParsePractice(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
	if _, err := ParsePractice("catapult"); err == nil {
		t.Error("expected error for unknown practice")
	}
}
