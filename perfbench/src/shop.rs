//! AlfredOShop pieces shared by `shop_churn` and `shop_taps`: the phone
//! engines, the seeded tap generator, the expected values every tap is
//! checked against, and the per-tap layer probes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_apps::shop::{link_comparison_logic, ComparisonLogic, ProductCatalog};
use alfredo_apps::{sample_catalog, SHOP_INTERFACE};
use alfredo_core::{AlfredOEngine, AlfredOSession, EngineConfig, LogicOffloadPolicy};
use alfredo_net::{ByteWriter, InMemoryNetwork, Transport};
use alfredo_obs::Obs;
use alfredo_osgi::{CodeRegistry, Framework, Value};
use alfredo_rosgi::{DiscoveryDirectory, Message, RemoteEndpoint};
use alfredo_ui::render::select_renderer;
use alfredo_ui::{DeviceCapabilities, UiEvent};

use crate::layers::Layers;
use crate::util::{uncounted, us, us_since, Rng};

/// Search terms the phones type; each matches at least one product.
const SEARCH_TERMS: &[&str] = &[
    "bed", "sofa", "chair", "table", "oak", "dining", "kids", "walnut", "steel", "linen",
];

/// The two phone profiles: a Nokia 9300i (widget renderer) and an
/// iPhone (HTML renderer).
pub fn phone_caps(phone: usize) -> DeviceCapabilities {
    if phone.is_multiple_of(2) {
        DeviceCapabilities::nokia_9300i()
    } else {
        DeviceCapabilities::iphone()
    }
}

/// A trusted phone engine whose policy places the comparison tier on the
/// phone. A fresh engine has an empty tier cache.
pub fn phone_engine(phone: usize, net: InMemoryNetwork, obs: Obs) -> AlfredOEngine {
    let code = CodeRegistry::new();
    link_comparison_logic(&code);
    let config = EngineConfig::phone(format!("phone-{phone}"), phone_caps(phone))
        .trusted(code)
        .with_obs(obs);
    AlfredOEngine::new(Framework::new(), net, DiscoveryDirectory::new(), config)
        .with_policy(LogicOffloadPolicy)
}

/// One user interaction on the shop UI.
#[derive(Debug, Clone, Copy)]
pub enum Tap {
    Refresh,
    Category(usize),
    Product(usize),
    Search(&'static str),
    Compare,
}

/// What the phone's UI state should hold, tracked alongside the session.
#[derive(Debug, Clone, Default)]
pub struct View {
    cats_loaded: bool,
    products: Vec<String>,
    selected: Option<usize>,
    compare_with: Option<String>,
}

/// The catalog the device serves, read directly for expected values.
pub struct Expect {
    catalog: Arc<ProductCatalog>,
    cats: Vec<String>,
}

impl Expect {
    pub fn new() -> Self {
        let catalog = sample_catalog();
        let cats = catalog.categories();
        Expect { catalog, cats }
    }

    /// A valid next tap for `view`, drawn from the seeded stream.
    pub fn random_tap(&self, rng: &mut Rng, view: &View) -> Tap {
        if !view.cats_loaded {
            return Tap::Refresh;
        }
        loop {
            let tap = match rng.below(11) {
                0 => Tap::Refresh,
                1..=3 => Tap::Category(rng.below(self.cats.len())),
                4..=6 if !view.products.is_empty() => Tap::Product(rng.below(view.products.len())),
                7 | 8 => Tap::Search(SEARCH_TERMS[rng.below(SEARCH_TERMS.len())]),
                9 | 10 if self.can_compare(view) => Tap::Compare,
                _ => continue,
            };
            return tap;
        }
    }

    /// The five taps of one `shop_churn` session: refresh, a category, a
    /// product in it, compare, a search.
    pub fn session_script(&self, rng: &mut Rng) -> [Tap; 5] {
        let cat = rng.below(self.cats.len());
        let n = self.catalog.products_in(&self.cats[cat]).len();
        [
            Tap::Refresh,
            Tap::Category(cat),
            Tap::Product(rng.below(n)),
            Tap::Compare,
            Tap::Search(SEARCH_TERMS[rng.below(SEARCH_TERMS.len())]),
        ]
    }

    fn can_compare(&self, view: &View) -> bool {
        view.compare_with.is_some() && view.selected.is_some_and(|i| i < view.products.len())
    }

    /// The method and arguments the controller sends for `tap`.
    pub fn call(&self, tap: Tap, view: &View) -> (&'static str, Vec<Value>) {
        match tap {
            Tap::Refresh => ("categories", vec![]),
            Tap::Category(i) => ("products", vec![Value::from(self.cats[i].as_str())]),
            Tap::Product(j) => ("details", vec![Value::from(nth(&view.products, Some(j)))]),
            Tap::Search(t) => ("search", vec![Value::from(t)]),
            Tap::Compare => {
                let a = nth(&view.products, view.selected);
                let b = view.compare_with.as_deref().unwrap_or_default();
                ("compare", vec![Value::from(a), Value::from(b)])
            }
        }
    }

    /// Checks the state the tap bound against values computed from the
    /// catalog, then advances `view`. Returns `false` on a mismatch.
    pub fn check(&self, tap: Tap, view: &mut View, session: &AlfredOSession) -> bool {
        match tap {
            Tap::Refresh => {
                view.cats_loaded = true;
                session.with_state(|s| s.items("categories")) == Some(self.cats.clone())
            }
            Tap::Category(i) => {
                view.products = self.catalog.products_in(&self.cats[i]);
                session.with_state(|s| s.items("products")) == Some(view.products.clone())
            }
            Tap::Product(j) => {
                let name = nth(&view.products, Some(j)).to_owned();
                let want = self.catalog.get(&name).map(|p| p.to_value());
                view.selected = Some(j);
                view.compare_with = Some(name);
                let got = session.with_state(|s| s.get("detail").cloned());
                want.is_some() && got == want
            }
            Tap::Search(t) => {
                view.products = self.catalog.search(t);
                session.with_state(|s| s.items("products")) == Some(view.products.clone())
            }
            Tap::Compare => {
                let (_, args) = self.call(tap, view);
                let product = |v: &Value| {
                    self.catalog
                        .get(v.as_str().unwrap_or_default())
                        .map(|p| p.to_value())
                };
                let want = match (product(&args[0]), product(&args[1])) {
                    (Some(a), Some(b)) => ComparisonLogic::compare(&a, &b).ok(),
                    _ => None,
                };
                let got = session.with_state(|s| s.get("verdict").cloned());
                want.is_some() && got == want
            }
        }
    }
}

/// The `i`-th item, or `""` when there is none (the tap then fails and
/// is counted).
fn nth(items: &[String], i: Option<usize>) -> &str {
    i.and_then(|i| items.get(i)).map_or("", String::as_str)
}

impl Tap {
    pub fn event(self) -> UiEvent {
        match self {
            Tap::Refresh => UiEvent::Click {
                control: "refresh".into(),
            },
            Tap::Category(i) => UiEvent::Selected {
                control: "categories".into(),
                index: i,
            },
            Tap::Product(j) => UiEvent::Selected {
                control: "products".into(),
                index: j,
            },
            Tap::Search(t) => UiEvent::TextChanged {
                control: "search".into(),
                text: t.into(),
            },
            Tap::Compare => UiEvent::Click {
                control: "compare".into(),
            },
        }
    }
}

/// Counts of one closed-loop phone thread.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// Runs one tap through the session, timing `handle_event` until the
/// result is bound, and checks the bound state. Returns the tap time in
/// µs, or `None` when the tap failed or its output was wrong. Building
/// the event and checking the result are left out of the allocation
/// count.
pub fn run_tap(
    expect: &Expect,
    tap: Tap,
    view: &mut View,
    session: &AlfredOSession,
    tally: &mut Tally,
) -> Option<f64> {
    let event = uncounted(|| tap.event());
    tally.attempted += 1;
    let t0 = Instant::now();
    let result = session.handle_event(&event);
    let elapsed = us_since(t0);
    if result.is_err() {
        tally.failed += 1;
        return None;
    }
    if !uncounted(|| expect.check(tap, view, session)) {
        tally.failed += 1;
        tally.mismatches += 1;
        return None;
    }
    Some(elapsed)
}

/// Times the layers under one tap, with the tap's exact method and
/// arguments: the bare R-OSGi invoke, a ping on the same connection, the
/// codec, and the service called directly through the device registry.
/// The controller's self time and the unexplained residual are derived
/// from the same samples.
pub fn probe_tap_layers(
    layers: &mut Layers,
    endpoint: &RemoteEndpoint,
    device: &Framework,
    method: &str,
    args: &[Value],
    tap_us: f64,
) -> bool {
    let t0 = Instant::now();
    let ok = endpoint.invoke(SHOP_INTERFACE, method, args).is_ok();
    let invoke = us_since(t0);

    let t0 = Instant::now();
    let pinged = endpoint.ping(Duration::from_secs(5)).is_ok();
    let ping = us_since(t0);

    const BATCH: u32 = 16;
    let t0 = Instant::now();
    let mut frame = Vec::new();
    for _ in 0..BATCH {
        let mut w = ByteWriter::new();
        Message::encode_invoke(&mut w, 7, SHOP_INTERFACE, method, args, None, None);
        frame = std::hint::black_box(w.into_bytes());
    }
    let encode_ns = us_since(t0) * 1e3 / f64::from(BATCH);
    let t0 = Instant::now();
    let mut decoded = true;
    for _ in 0..BATCH {
        decoded &= std::hint::black_box(Message::decode_invoke_borrowed(&frame)).is_ok();
    }
    let decode_ns = us_since(t0) * 1e3 / f64::from(BATCH);

    let t0 = Instant::now();
    let served = device
        .registry()
        .get_service(SHOP_INTERFACE)
        .is_some_and(|svc| svc.invoke(method, args).is_ok());
    let service = us_since(t0);

    layers.add("rosgi.invoke_us", invoke);
    layers.add("rosgi.ping_us", ping);
    layers.add("rosgi.encode_ns", encode_ns);
    layers.add("rosgi.decode_ns", decode_ns);
    layers.add("osgi.service_us", service);
    layers.add("alfredo.controller_us", tap_us - invoke);
    layers.add(
        "rosgi.residual_us",
        invoke - ping - service - (encode_ns + decode_ns) / 1e3,
    );
    ok && pinged && decoded && served
}

/// Times the `ui` renderer on the shop descriptor, once per phone
/// profile per round.
pub fn probe_render(layers: &mut Layers, rounds: usize) {
    let ui = alfredo_apps::shop::ShopService::descriptor().ui;
    for _ in 0..rounds {
        for phone in 0..2 {
            let caps = phone_caps(phone);
            let t0 = Instant::now();
            let renderer = select_renderer(&caps);
            let ok = std::hint::black_box(renderer.render(&ui, &caps)).is_ok();
            if ok {
                layers.add("ui.render_us", us_since(t0));
            }
        }
    }
}

/// One frame bounced off a peer that echoes it back: the bare transport
/// round trip, no R-OSGi.
pub fn echo_rtt(client: &dyn Transport, payload: &[u8]) -> Option<f64> {
    let t0 = Instant::now();
    client.send(payload.to_vec()).ok()?;
    let back = client.recv_timeout(Duration::from_secs(5)).ok()?;
    (back.len() == payload.len()).then(|| us(t0.elapsed()))
}

/// Serves echoes until the connection closes.
pub fn echo_server(server: Box<dyn Transport>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(frame) = server.recv() {
            if server.send(frame).is_err() {
                break;
            }
        }
    })
}

/// The engine's phase spans and the device's `serve:*` spans, as layer
/// metrics.
pub fn phase_spans(layers: &mut Layers, ring: &alfredo_obs::RingSink) {
    let mut serve = Vec::new();
    for span in ring.drain() {
        let d = span.duration_us as f64;
        match span.name.as_str() {
            "handshake" => layers.add("alfredo.phase.handshake_us", d),
            "lease" => layers.add("alfredo.phase.lease_us", d),
            "tier_transfer" => layers.add("alfredo.phase.tier_transfer_us", d),
            "render" => layers.add("alfredo.phase.render_us", d),
            name if name.starts_with("serve:") => serve.push(d),
            _ => {}
        }
    }
    for d in serve {
        layers.add("obs.serve_p50_us", d);
    }
}

/// Adds an endpoint's `rosgi.invoke_rtt_us` bucket counts to `acc`.
pub fn merge_rtt_buckets(acc: &mut Vec<u64>, ep: &RemoteEndpoint) {
    let counts = ep
        .obs()
        .metrics()
        .histogram("rosgi.invoke_rtt_us")
        .bucket_counts();
    merge_buckets(acc, &counts);
}

pub fn merge_buckets(acc: &mut Vec<u64>, counts: &[u64]) {
    if acc.len() < counts.len() {
        acc.resize(counts.len(), 0);
    }
    for (a, c) in acc.iter_mut().zip(counts) {
        *a += c;
    }
}

/// `p50` of merged power-of-two bucket counts, as the registry resolves
/// it: the bucket's upper bound, whole µs.
pub fn bucket_p50(buckets: &[u64]) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let mut seen = 0;
    for (i, c) in buckets.iter().enumerate() {
        seen += c;
        if seen * 2 >= total {
            return Some(if i == 0 {
                0.0
            } else {
                ((1u64 << i) - 1) as f64
            });
        }
    }
    None
}
