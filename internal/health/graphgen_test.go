package health

import "testing"

func TestGenerateGraphPair(t *testing.T) {
	base, exp, err := GenerateGraphPair(GraphGenConfig{Endpoints: 500, ChangeFraction: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumNodes() < 450 || base.NumNodes() > 550 {
		t.Errorf("base nodes = %d", base.NumNodes())
	}
	if exp.NumNodes() < base.NumNodes() {
		t.Errorf("exp should have >= nodes (new services added): %d < %d", exp.NumNodes(), base.NumNodes())
	}
	d := Compare(base, exp)
	if len(d.Changes) == 0 {
		t.Fatal("generated pair produced no changes")
	}
	// Both version updates and structural changes should appear.
	byType := d.CountByType()
	if byType[ChangeCallNewEndpoint] == 0 {
		t.Error("no new-endpoint changes generated")
	}
	if byType[ChangeUpdatedCalleeVersion]+byType[ChangeUpdatedVersion]+byType[ChangeUpdatedCallerVersion] == 0 {
		t.Error("no version-update changes generated")
	}
	if byType[ChangeRemoveCall] == 0 {
		t.Error("no removed calls generated")
	}
	if _, _, err := GenerateGraphPair(GraphGenConfig{Endpoints: 0}); err == nil {
		t.Error("zero endpoints should fail")
	}
}
