//! Microbenchmarks of the simulation substrate: event-queue throughput, the
//! MAC under saturation, the analog models' hot paths, and TCP.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use powifi_core::{Router, RouterConfig};
use powifi_deploy::three_channel_world;
use powifi_harvest::{MatchingNetwork, Rectifier};
use powifi_mac::{start_source, Frame, Mac, MacWorld, Queue, RateController, Source, StationId};
use powifi_net::{dispatch_stack, start_tcp_flow, tcp_push_at, NetState, NetWorld, StackEvent};
use powifi_rf::{Bitrate, Dbm, Hertz};
use powifi_sim::{Dispatch, EventQueue, SimDuration, SimRng, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    struct Counter(u64);
    impl Dispatch<u32> for Counter {
        fn dispatch(&mut self, _q: &mut EventQueue<Self, u32>, ev: u32) {
            self.0 += u64::from(ev);
        }
    }
    c.bench_function("event_queue/post_and_run_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::<Counter, u32>::new();
            let mut w = Counter(0);
            for i in 0..10_000u64 {
                q.post_at(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), 1u32);
            }
            q.run_to_completion(&mut w);
            assert_eq!(w.0, 10_000);
        })
    });
}

struct W {
    mac: Mac,
    net: NetState,
}
impl Dispatch<StackEvent> for W {
    fn dispatch(&mut self, q: &mut Queue<Self>, ev: StackEvent) {
        dispatch_stack(self, q, ev);
    }
}
impl MacWorld for W {
    type Ev = StackEvent;
    fn mac(&self) -> &Mac {
        &self.mac
    }
    fn mac_mut(&mut self) -> &mut Mac {
        &mut self.mac
    }
    fn deliver(&mut self, q: &mut Queue<Self>, rx: StationId, frame: &Frame) {
        powifi_net::on_deliver(self, q, rx, frame);
    }
}
impl NetWorld for W {
    fn net(&self) -> &NetState {
        &self.net
    }
    fn net_mut(&mut self) -> &mut NetState {
        &mut self.net
    }
}

fn bench_mac_saturation(c: &mut Criterion) {
    c.bench_function("mac/saturated_channel_1s", |b| {
        b.iter(|| {
            let mut w = W {
                mac: Mac::new(SimRng::from_seed(1)),
                net: NetState::new(),
            };
            let m = w.mac.add_medium(SimDuration::from_secs(1));
            let sta = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
            let mut q = Queue::new();
            let src = Source {
                frame: Frame::power(sta, 1500, Bitrate::G54),
                period: SimDuration::from_micros(100),
                below: 5,
            };
            start_source(&mut w, &mut q, SimTime::ZERO, src);
            q.run_until(&mut w, SimTime::from_secs(1));
            w.mac.station(sta).frames_sent
        })
    });
}

fn bench_tcp(c: &mut Criterion) {
    c.bench_function("tcp/bulk_1s_clean_link", |b| {
        b.iter(|| {
            let mut w = W {
                mac: Mac::new(SimRng::from_seed(1)),
                net: NetState::new(),
            };
            let m = w.mac.add_medium(SimDuration::from_secs(1));
            let ap = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
            let cl = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
            let mut q = Queue::new();
            let flow = start_tcp_flow(&mut w, ap, cl);
            tcp_push_at(&mut q, SimTime::ZERO, flow, 100_000_000);
            q.run_until(&mut w, SimTime::from_secs(1));
            w.net.tcp(flow).mean_mbps()
        })
    });
}

fn bench_router_install(c: &mut Criterion) {
    c.bench_function("router/three_channel_100ms", |b| {
        b.iter_batched(
            || three_channel_world(1, SimDuration::from_millis(100)),
            |(mut w, mut q, channels)| {
                let rng = SimRng::from_seed(2);
                Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
                q.run_until(&mut w, SimTime::from_millis(100));
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_analog(c: &mut Criterion) {
    let net = MatchingNetwork::battery_free();
    let rect = Rectifier::battery_free();
    c.bench_function("analog/s11_band_scan_81pts", |b| {
        b.iter(|| {
            let mut worst = f64::MIN;
            for i in 0..81 {
                let f = Hertz::from_mhz(2400.0 + i as f64);
                worst = worst.max(net.return_loss(f).0);
            }
            worst
        })
    });
    c.bench_function("analog/rectifier_curve_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1000 {
                acc += rect.output_power(Dbm(-20.0 + i as f64 * 0.024)).0;
            }
            acc
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_mac_saturation,
    bench_tcp,
    bench_router_install,
    bench_analog
);
criterion_main!(benches);
