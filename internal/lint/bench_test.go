package lint

import "testing"

// BenchmarkCheckAll measures a full analyzer pass — all nine rules,
// summaries included — over every package in the module. CI runs it in
// the kernel smoke cell so analyzer runtime regressions are visible next
// to the kernel numbers. Loading (go list + type-check) is excluded: the
// interesting cost is rule evaluation, not the toolchain.
func BenchmarkCheckAll(b *testing.B) {
	pkgs, err := Load([]string{"pelta/..."})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := CheckAll(pkgs, &Config{}); len(diags) != 0 {
			b.Fatalf("dogfood regression: %d findings, first: %s", len(diags), diags[0])
		}
	}
}
