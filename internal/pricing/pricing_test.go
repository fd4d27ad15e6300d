package pricing

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-12 || math.Abs(a-b) < 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestFunctionCostOneGBSecond(t *testing.T) {
	p := Default()
	got := p.ComputeOnlyCost(1, 1024)
	want := p.FunctionGBSecond
	if !almost(got, want) {
		t.Errorf("ComputeOnlyCost(1s, 1024MB) = %g, want %g", got, want)
	}
}

func TestFunctionCostScalesLinearlyWithMemory(t *testing.T) {
	p := Default()
	base := p.ComputeOnlyCost(10, 1024)
	doubled := p.ComputeOnlyCost(10, 2048)
	if !almost(doubled, 2*base) {
		t.Errorf("doubling memory: %g, want %g", doubled, 2*base)
	}
}

func TestFunctionCostMinimumBilling(t *testing.T) {
	p := Default()
	tiny := p.ComputeOnlyCost(1e-9, 1024)
	floor := p.ComputeOnlyCost(0.001, 1024)
	if !almost(tiny, floor) {
		t.Errorf("sub-millisecond run billed %g, want the 1ms floor %g", tiny, floor)
	}
}

func TestComputeOnlyCostExcludesInvocation(t *testing.T) {
	p := Default()
	if got, want := p.ComputeOnlyCost(2, 512), 2*0.5*p.FunctionGBSecond; !almost(got, want) {
		t.Errorf("ComputeOnlyCost = %g, want %g: GB-seconds only, no %g invocation fee", got, want, p.FunctionInvoke)
	}
}

func TestDynamoWriteCostRoundsUpPerKB(t *testing.T) {
	p := Default()
	if got, want := p.DynamoWriteCost(0.2), p.DynamoWriteUnit; !almost(got, want) {
		t.Errorf("0.2KB write = %g, want one unit %g", got, want)
	}
	if got, want := p.DynamoWriteCost(1.5), 2*p.DynamoWriteUnit; !almost(got, want) {
		t.Errorf("1.5KB write = %g, want two units %g", got, want)
	}
	if got, want := p.DynamoWriteCost(400), 400*p.DynamoWriteUnit; !almost(got, want) {
		t.Errorf("400KB write = %g, want %g", got, want)
	}
}

func TestDynamoReadCheaperThanWrite(t *testing.T) {
	p := Default()
	if p.DynamoReadCost(4) >= p.DynamoWriteCost(4) {
		t.Error("a 4KB read should cost less than a 4KB write under on-demand pricing")
	}
}

func TestHourlyCostMinimumOneMinute(t *testing.T) {
	if got, want := HourlyCost(60, 1), 1.0; !almost(got, want) {
		t.Errorf("1s at $60/h = %g, want one minute = %g", got, want)
	}
}

func TestHourlyCostWholeHour(t *testing.T) {
	if got, want := HourlyCost(0.192, 3600), 0.192; !almost(got, want) {
		t.Errorf("3600s at $0.192/h = %g, want %g", got, want)
	}
}

func TestHourlyCostMonotone(t *testing.T) {
	if err := quick.Check(func(a, b uint16) bool {
		s1, s2 := float64(a), float64(a)+float64(b)
		return HourlyCost(1, s1) <= HourlyCost(1, s2)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFunctionCostMonotoneInDuration(t *testing.T) {
	p := Default()
	if err := quick.Check(func(a, b uint16) bool {
		s1, s2 := float64(a)/10, float64(a)/10+float64(b)/10
		return p.ComputeOnlyCost(s1, 1769) <= p.ComputeOnlyCost(s2, 1769)+1e-15
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultPricesPositive(t *testing.T) {
	p := Default()
	checks := map[string]float64{
		"FunctionGBSecond":    p.FunctionGBSecond,
		"FunctionInvoke":      p.FunctionInvoke,
		"S3PutRequest":        p.S3PutRequest,
		"S3GetRequest":        p.S3GetRequest,
		"DynamoWriteUnit":     p.DynamoWriteUnit,
		"DynamoReadUnit":      p.DynamoReadUnit,
		"ElastiCacheNodeHour": p.ElastiCacheNodeHour,
		"VMHour":              p.VMHour,
	}
	for name, v := range checks {
		if v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	// Relative ordering that Table I depends on: S3 PUT costs more than GET,
	// and per-request storage is far cheaper per op than a VM minute.
	if p.S3PutRequest <= p.S3GetRequest {
		t.Error("S3 PUT should cost more than GET")
	}
	if p.S3PutRequest >= p.VMHour/60 {
		t.Error("one S3 PUT should cost less than one VM minute")
	}
}
