//! Unit-level tests of the world's message accounting, home routing, and
//! final-image extraction.

use dsm_mem::{Access, Layout};
use dsm_net::{Notify, MSG_HEADER_BYTES};
use dsm_proto::{final_image, ProtoConfig, ProtoWorld, Protocol};

fn world(p: Protocol, nodes: usize) -> ProtoWorld {
    let mut cfg = ProtoConfig::new(Layout::new(4096, 256), p, Notify::Polling);
    cfg.nodes = nodes;
    let mut w = ProtoWorld::new(cfg);
    w.load_golden(&(0..4096).map(|i| i as u8).collect::<Vec<_>>());
    w
}

#[test]
fn route_home_prefers_claimed_over_directory() {
    let mut w = world(Protocol::Hlrc, 4);
    // Unclaimed: static directory node (block % nodes).
    assert_eq!(w.route_home(5), 1);
    assert_eq!(w.route_home(6), 2);
    w.homes.claim_for(5, 3);
    assert_eq!(w.route_home(5), 3);
}

#[test]
fn golden_image_reaches_every_node_copy() {
    let w = world(Protocol::Sc, 4);
    for n in 0..4 {
        assert_eq!(w.data.node(n)[100], 100);
        assert_eq!(w.data.node(n)[4095], (4095 % 256) as u8);
    }
}

#[test]
fn final_image_prefers_authoritative_copies() {
    // Under SC, an exclusive owner's copy wins over the home's.
    let mut w = world(Protocol::Sc, 4);
    // Fake a directory state: block 0 claimed by node 1, exclusively owned
    // by node 2 with modified data.
    w.homes.claim_for(0, 1);
    w.access.set(2, 0, Access::ReadWrite);
    w.data.node_mut(2)[0] = 0xEE;
    // Register node 2 as exclusive owner in the directory.
    // (Exercised through the protocol in integration tests; here we check
    // the home fallback when the directory has no owner.)
    let img = final_image(&w);
    // No owner recorded in the directory => home's (golden) copy is chosen.
    assert_eq!(img[0], 0);
    assert_eq!(img[300], 44); // 300 % 256, from the golden pattern
}

#[test]
fn static_homes_config_preassigns_every_block() {
    let mut cfg = ProtoConfig::new(Layout::new(4096, 256), Protocol::Sc, Notify::Polling);
    cfg.nodes = 4;
    cfg.first_touch = false;
    let w = ProtoWorld::new(cfg);
    for b in 0..16 {
        assert_eq!(w.homes.home(b), Some(b % 4));
    }
}

#[test]
fn first_touch_config_leaves_blocks_unclaimed() {
    let w = world(Protocol::Sc, 4);
    for b in 0..16 {
        assert_eq!(w.homes.home(b), None);
    }
}

#[test]
fn lock_and_barrier_tables_grow_on_demand() {
    let mut w = world(Protocol::Sc, 4);
    assert!(w.locks.is_empty());
    w.lock_mut(17);
    assert_eq!(w.locks.len(), 18);
    assert!(!w.locks[17].held);
    w.barrier_mut(3);
    assert_eq!(w.barriers.len(), 1);
    assert!(w.barriers[&3].arrived.is_empty());
}

#[test]
fn header_bytes_are_charged_per_message() {
    // Per-message accounting is validated end to end: a two-node SC run's
    // control bytes are at least one header per message sent.
    use dsm_core::{Dsm, DsmThread};
    use dsm_sim::engine::{run_cluster, NodeCtx};
    let w = world(Protocol::Sc, 2);
    type Body = Box<dyn FnOnce(&mut NodeCtx<ProtoWorld>) + Send>;
    let bodies: Vec<Body> = vec![
        Box::new(|ctx: &mut NodeCtx<ProtoWorld>| {
            let mut t = DsmThread::new(ctx, 0);
            t.write_u64(256, 1); // one remote-ish fault
            t.barrier(0);
            t.flush();
        }),
        Box::new(|ctx: &mut NodeCtx<ProtoWorld>| {
            let mut t = DsmThread::new(ctx, 0);
            t.barrier(0);
            let _ = t.read_u64(256);
            t.flush();
        }),
    ];
    let (w, _) = run_cluster(w, bodies);
    let msgs: u64 = w.sink.stats.iter().map(|c| c.msgs_sent).sum();
    let ctrl: u64 = w.sink.stats.iter().map(|c| c.ctrl_bytes).sum();
    assert!(msgs > 0);
    assert!(ctrl >= msgs * MSG_HEADER_BYTES, "{ctrl} < {msgs} headers");
}
