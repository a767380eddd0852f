//! Graphs shared by the kernel-versus-oracle unit tests.

use proptest::prelude::*;
use san_graph::{AttrId, AttrType, CsrSan, San, SocialId};

/// Random SANs with up to `max_social` social and `max_attr` attribute
/// nodes: reciprocal pairs, isolated nodes, memberless attributes and (at
/// zero social nodes) the empty graph.
pub(crate) fn arb_san(max_social: u32, max_attr: u32) -> impl Strategy<Value = San> {
    (
        0..=max_social,
        0..=max_attr,
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..160),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..60),
    )
        .prop_map(|(ns, na, social, attr)| {
            let mut san = San::new();
            for _ in 0..ns {
                san.add_social_node();
            }
            for _ in 0..na {
                san.add_attr_node(AttrType::Other);
            }
            if ns > 0 {
                for (u, v, mutual) in social {
                    let (u, v) = (SocialId(u % ns), SocialId(v % ns));
                    san.add_social_link(u, v);
                    if mutual {
                        san.add_social_link(v, u);
                    }
                }
                if na > 0 {
                    for (u, a) in attr {
                        san.add_attr_link(SocialId(u % ns), AttrId(a % na));
                    }
                }
            }
            san
        })
}

/// Visits every 7th day of a small Google+ timeline (4 Phase II
/// arrivals/day).
pub(crate) fn google_plus_every_7th_day(mut visit: impl FnMut(u32, &CsrSan)) {
    let tl = san_sim::GooglePlus::at_scale(4).generate(3).timeline;
    let mut days = 0;
    tl.for_each_snapshot(7, |day, csr| {
        visit(day, csr);
        days += 1;
    });
    assert!(days >= 10, "only {days} sampled days");
}
