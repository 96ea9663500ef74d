package gpu

import (
	"reflect"
	"testing"

	"stemroot/internal/kernelgen"
)

// segKeyTestSpec is a fully-populated spec so every field participates in
// the sensitivity sweep below.
func segKeyTestSpec() kernelgen.Spec {
	return kernelgen.Spec{
		Name:             "segkey-test",
		Blocks:           24,
		WarpsPerBlock:    8,
		InstrsPerWarp:    512,
		FP32Frac:         0.40,
		FP16Frac:         0.05,
		SFUFrac:          0.02,
		LoadFrac:         0.20,
		StoreFrac:        0.08,
		BranchFrac:       0.06,
		FootprintBytes:   1 << 20,
		Locality:         0.7,
		RandomAccess:     0.1,
		BaseAddr:         0x1000,
		WeightsAddr:      0x8000,
		WeightsFrac:      0.25,
		BranchDivergence: 0.15,
		Seed:             42,
	}
}

// TestSegmentKeyGolden pins the key derivation bit-for-bit. If this value
// changes, every on-disk cache entry written by earlier builds becomes
// unreachable — which is the intended invalidation mechanism, but it must
// happen deliberately (engine change + fingerprint bump), never by an
// accidental encoding change.
func TestSegmentKeyGolden(t *testing.T) {
	key := KeyForSegment(Baseline(), []kernelgen.Spec{segKeyTestSpec()})
	const want = "9a7e44f1004101df0950dc96b00fe764d19310092b33632540ff94dbaa787345"
	if got := key.String(); got != want {
		t.Fatalf("segment key drifted:\n got  %s\n want %s\n"+
			"If the encoding or EngineFingerprint changed intentionally, update this golden.", got, want)
	}
}

// TestSegmentKeyDistinct checks basic injectivity properties that the
// hasher's length-prefixed encoding must provide.
func TestSegmentKeyDistinct(t *testing.T) {
	cfg := Baseline()
	s := segKeyTestSpec()
	base := KeyForSegment(cfg, []kernelgen.Spec{s})

	if k := KeyForSegment(cfg, []kernelgen.Spec{s, s}); k == base {
		t.Fatal("key ignores spec count")
	}
	if k := KeyForSegment(cfg, nil); k == base {
		t.Fatal("key ignores specs entirely")
	}
	cfg2 := cfg
	cfg2.Name = cfg.Name + "x"
	if k := KeyForSegment(cfg2, []kernelgen.Spec{s}); k == base {
		t.Fatal("key ignores config identity")
	}
}

// mutateField returns a copy of v (a struct) with field i perturbed to a
// different value, recursing into nested structs (which contribute one
// mutant per leaf field).
func fieldMutants(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			for _, sub := range fieldMutants(f) {
				m := reflect.New(v.Type()).Elem()
				m.Set(v)
				m.Field(i).Set(sub)
				out = append(out, m)
			}
		default:
			m := reflect.New(v.Type()).Elem()
			m.Set(v)
			mf := m.Field(i)
			switch f.Kind() {
			case reflect.String:
				mf.SetString(f.String() + "~")
			case reflect.Bool:
				mf.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				mf.SetInt(f.Int() + 1)
			case reflect.Uint64:
				mf.SetUint(f.Uint() + 1)
			case reflect.Float64:
				mf.SetFloat(f.Float() + 0.125)
			default:
				panic("segkey_test: unhandled field kind " + f.Kind().String() +
					" — extend fieldMutants and the key encoder together")
			}
			out = append(out, m)
		}
	}
	return out
}

// TestSegmentKeyCoversConfig perturbs every Config field (including nested
// CacheConfig leaves) and requires the key to change. A Config field added
// without extending writeConfig makes its mutant hash identically and fails
// here — the guard against silently stale cache keys.
func TestSegmentKeyCoversConfig(t *testing.T) {
	cfg := Baseline()
	spec := segKeyTestSpec()
	base := KeyForSegment(cfg, []kernelgen.Spec{spec})
	for _, m := range fieldMutants(reflect.ValueOf(cfg)) {
		mc := m.Interface().(Config)
		if KeyForSegment(mc, []kernelgen.Spec{spec}) == base {
			t.Errorf("config mutant not reflected in key: %+v", mc)
		}
	}
}

// TestSegmentKeyCoversSpec is the same guard for kernelgen.Spec fields.
func TestSegmentKeyCoversSpec(t *testing.T) {
	cfg := Baseline()
	spec := segKeyTestSpec()
	base := KeyForSegment(cfg, []kernelgen.Spec{spec})
	for _, m := range fieldMutants(reflect.ValueOf(spec)) {
		ms := m.Interface().(kernelgen.Spec)
		if KeyForSegment(cfg, []kernelgen.Spec{ms}) == base {
			t.Errorf("spec mutant not reflected in key: %+v", ms)
		}
	}
}
