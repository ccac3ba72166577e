package netsim

import (
	"fmt"
	"math"
	"testing"

	"iophases/internal/des"
	"iophases/internal/units"
)

func TestLinkSerializationTime(t *testing.T) {
	// One message pays both links' latency and one serialization time:
	// exactly PathCost.
	eng := des.NewEngine()
	params := LinkParams{Bandwidth: units.MBps(100), Latency: units.Millisecond}
	f := NewFabric(eng, "net", params)
	f.AddEndpoint("a")
	f.AddEndpoint("b")
	var done units.Duration
	eng.Spawn("tx", func(p *des.Proc) {
		f.Send(p, "a", "b", 100*units.MiB)
		done = p.Now()
	})
	eng.Run()
	want := units.Second + 2*units.Millisecond
	if done != want || done != params.PathCost(100*units.MiB) {
		t.Fatalf("transfer took %v, want %v", done, want)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Two concurrent 1s sends from one endpoint to two others share its
	// uplink, so they finish at 1s and 2s: aggregate never exceeds link
	// bandwidth.
	eng := des.NewEngine()
	f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
	for _, ep := range []string{"a", "b", "c"} {
		f.AddEndpoint(ep)
	}
	var ends []units.Duration
	for _, dst := range []string{"b", "c"} {
		eng.Spawn("tx-"+dst, func(p *des.Proc) {
			f.Send(p, "a", dst, 100*units.MiB)
			ends = append(ends, p.Now())
		})
	}
	eng.Run()
	if len(ends) != 2 || ends[0] != units.Second || ends[1] != 2*units.Second {
		t.Fatalf("ends = %v, want [1s 2s]", ends)
	}
}

func TestLinkStats(t *testing.T) {
	eng := des.NewEngine()
	f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
	f.AddEndpoint("a")
	f.AddEndpoint("b")
	eng.Spawn("tx", func(p *des.Proc) {
		f.Send(p, "a", "b", 10*units.MiB)
		f.Send(p, "a", "b", 20*units.MiB)
	})
	eng.Run()
	for _, l := range []*Link{f.Uplink("a"), f.Downlink("b")} {
		bytes, msgs, busy := l.Stats()
		if bytes != 30*units.MiB || msgs != 2 || busy != 300*units.Millisecond {
			t.Fatalf("%s stats = %d bytes %d msgs busy %v", l.Name(), bytes, msgs, busy)
		}
	}
}

func TestFabricPointToPointBandwidth(t *testing.T) {
	// A single flow achieves the full link bandwidth (cut-through, not
	// store-and-forward).
	eng := des.NewEngine()
	f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
	f.AddEndpoint("a")
	f.AddEndpoint("b")
	var done units.Duration
	eng.Spawn("tx", func(p *des.Proc) {
		f.Send(p, "a", "b", 100*units.MiB)
		done = p.Now()
	})
	eng.Run()
	if done != units.Second {
		t.Fatalf("p2p transfer took %v, want 1s", done)
	}
}

func TestFabricServerBottleneck(t *testing.T) {
	// N clients sending to one server aggregate to the server downlink
	// bandwidth: total time ≈ N × (size/bw), the NFS mechanism.
	eng := des.NewEngine()
	f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
	const n = 4
	f.AddEndpoint("server")
	for i := 0; i < n; i++ {
		f.AddEndpoint(fmt.Sprintf("client%d", i))
	}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("client%d", i)
		eng.Spawn(src, func(p *des.Proc) {
			f.Send(p, src, "server", 100*units.MiB)
		})
	}
	eng.Run()
	if eng.Now() != units.Duration(n)*units.Second {
		t.Fatalf("aggregate time %v, want %ds", eng.Now(), n)
	}
}

func TestFabricParallelServersScale(t *testing.T) {
	// N clients striped across N servers all complete in one transfer
	// time: the PVFS/Lustre aggregation mechanism.
	eng := des.NewEngine()
	f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
	const n = 4
	for i := 0; i < n; i++ {
		f.AddEndpoint(fmt.Sprintf("client%d", i))
		f.AddEndpoint(fmt.Sprintf("server%d", i))
	}
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("tx%d", i), func(p *des.Proc) {
			f.Send(p, fmt.Sprintf("client%d", i), fmt.Sprintf("server%d", i), 100*units.MiB)
		})
	}
	eng.Run()
	if eng.Now() != units.Second {
		t.Fatalf("striped transfers took %v, want 1s", eng.Now())
	}
}

func TestFabricLocalSendCheap(t *testing.T) {
	eng := des.NewEngine()
	f := NewFabric(eng, "net", Ethernet1G())
	f.AddEndpoint("a")
	var done units.Duration
	eng.Spawn("tx", func(p *des.Proc) {
		f.Send(p, "a", "a", 100*units.MiB)
		done = p.Now()
	})
	eng.Run()
	net := units.TransferTime(100*units.MiB, Ethernet1G().Bandwidth)
	if done >= net {
		t.Fatalf("local copy %v not cheaper than network %v", done, net)
	}
}

// TestFabricLocalSendMetered pins where loopback traffic is counted: a
// src == dst Send must appear in LocalStats and leave every link counter
// untouched, so link stats keep meaning "bytes that crossed the wire".
func TestFabricLocalSendMetered(t *testing.T) {
	eng := des.NewEngine()
	f := NewFabric(eng, "net", Ethernet1G())
	f.AddEndpoint("a")
	f.AddEndpoint("b")
	eng.Spawn("tx", func(p *des.Proc) {
		f.Send(p, "a", "a", 64*units.MiB)
		f.Send(p, "a", "a", 64*units.MiB)
		f.Send(p, "a", "b", 1*units.MiB)
	})
	eng.Run()
	if bytes, msgs := f.LocalStats(); bytes != 128*units.MiB || msgs != 2 {
		t.Fatalf("LocalStats = (%d, %d), want (%d, 2)", bytes, msgs, 128*units.MiB)
	}
	for _, ep := range f.Endpoints() {
		for _, l := range [2]*Link{f.Uplink(ep), f.Downlink(ep)} {
			bytes, msgs, _ := l.Stats()
			wantBytes, wantMsgs := int64(0), int64(0)
			if l == f.Uplink("a") || l == f.Downlink("b") {
				wantBytes, wantMsgs = 1*units.MiB, 1 // the remote send only
			}
			if bytes != wantBytes || msgs != wantMsgs {
				t.Errorf("%s stats = (%d, %d), want (%d, %d)",
					l.Name(), bytes, msgs, wantBytes, wantMsgs)
			}
		}
	}
}

// A loopback Send on an unregistered endpoint is a wiring bug and panics,
// matching the remote path's behavior.
func TestFabricLocalSendUnknownEndpointPanics(t *testing.T) {
	eng := des.NewEngine()
	f := NewFabric(eng, "net", Ethernet1G())
	panicked := false
	eng.Spawn("tx", func(p *des.Proc) {
		defer func() { panicked = recover() != nil }()
		f.Send(p, "ghost", "ghost", 1)
	})
	eng.Run()
	if !panicked {
		t.Fatal("no panic on unknown loopback endpoint")
	}
}

func TestFabricDuplicateEndpointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate endpoint")
		}
	}()
	f := NewFabric(des.NewEngine(), "net", Ethernet1G())
	f.AddEndpoint("a")
	f.AddEndpoint("a")
}

func TestPresetBandwidths(t *testing.T) {
	if got := Ethernet1G().Bandwidth.MBpsValue(); math.Abs(got-112) > 1 {
		t.Fatalf("1GbE = %v MB/s", got)
	}
	if ib := Infiniband20G().Bandwidth.MBpsValue(); ib < 1500 {
		t.Fatalf("IB 20G = %v MB/s, implausibly low", ib)
	}
	if Infiniband20G().Latency >= Ethernet1G().Latency {
		t.Fatal("InfiniBand latency should be below Ethernet latency")
	}
}

func TestCrossTrafficNoDeadlock(t *testing.T) {
	// a→b and b→a concurrently: the up/down split must not deadlock.
	eng := des.NewEngine()
	f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
	f.AddEndpoint("a")
	f.AddEndpoint("b")
	for i := 0; i < 8; i++ {
		src, dst := "a", "b"
		if i%2 == 1 {
			src, dst = "b", "a"
		}
		eng.Spawn(fmt.Sprintf("tx%d", i), func(p *des.Proc) {
			f.Send(p, src, dst, 10*units.MiB)
		})
	}
	eng.Run() // panics on deadlock
}
