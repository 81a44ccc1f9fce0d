//! The layer breakdown of a training step.
//!
//! `Trainer::fit` runs its mini-batch step privately, so the breakdown
//! re-runs the same step here from the model's public module methods, on
//! the workload's own documents and shapes: per-module forwards, the
//! backward pass and the optimizer step, each inside its own span under
//! one `train.step` span. Per-stage medians over the sampled batches come
//! back as per-layer milliseconds.

use om_data::split::CrossDomainScenario;
use om_data::types::UserId;
use om_nn::{Adadelta, HasParams, Optimizer, SupConBatch};
use om_tensor::{seeded_rng, Tensor};
use omnimatch_core::model::DomainSide;
use omnimatch_core::{CorpusViews, OmniMatchConfig, OmniMatchModel};

use crate::stats::median;
use crate::trace;

/// Median milliseconds per training batch, by stage.
pub struct StepBreakdown {
    /// Embedding gather of the batch's documents, timed on its own; the
    /// towers below include it again (it is their first op).
    pub embed: f64,
    pub user_tower: f64,
    pub item_tower: f64,
    pub rating_head: f64,
    pub projection: f64,
    pub domain_heads: f64,
    pub backward: f64,
    pub optim: f64,
}

impl StepBreakdown {
    /// The disjoint stages of one step (the embedding is inside the towers).
    pub fn step_sum(&self) -> f64 {
        self.user_tower
            + self.item_tower
            + self.rating_head
            + self.projection
            + self.domain_heads
            + self.backward
            + self.optim
    }

    pub fn report(&self, rep: &mut crate::Report) {
        rep.set("model.embed_ms", self.embed);
        rep.set("model.user_tower_ms", self.user_tower);
        rep.set("model.item_tower_ms", self.item_tower);
        rep.set("model.rating_head_ms", self.rating_head);
        rep.set("model.projection_ms", self.projection);
        rep.set("model.domain_heads_ms", self.domain_heads);
        rep.set("autograd.backward_ms", self.backward);
        rep.set("optim.step_ms", self.optim);
    }
}

/// Optimizer steps one `fit` takes on `scenario`: per epoch, one per
/// `batch_size` chunk of the training interactions that holds at least two
/// samples.
pub fn batches_per_fit(cfg: &OmniMatchConfig, scenario: &CrossDomainScenario) -> usize {
    let n = scenario.target_train.len();
    let full = n / cfg.batch_size;
    let tail = usize::from(n % cfg.batch_size >= 2);
    cfg.epochs * (full + tail)
}

/// Uniform draw in [0, 1) from the benchmark's seeded hash.
fn unit(h: u64) -> f64 {
    (crate::serve::mix64(h) >> 11) as f64 / (1u64 << 53) as f64
}

/// Time `batches` training steps (after one untimed warm-up step) of a
/// freshly initialised model over `views`. Each batch is drawn as `fit`
/// plans its epochs: consecutive chunks of shuffled samples, each user's
/// target document swapped for the aux document with probability
/// `aux_augment_prob`, and a fresh shuffle of the cold users for the
/// alignment losses when `align_cold_users` is on.
pub fn breakdown(
    cfg: &OmniMatchConfig,
    scenario: &CrossDomainScenario,
    views: &CorpusViews,
    batches: usize,
) -> StepBreakdown {
    let mut rng = seeded_rng(cfg.seed ^ 0x57E9);
    let model = OmniMatchModel::new(cfg, views.vocab.len(), None, &mut rng);
    let mut opt = Adadelta::new(model.params(), cfg.lr, cfg.rho);
    let mut samples: Vec<_> = scenario
        .target_train
        .interactions()
        .iter()
        .map(|it| (it.user, it.item, it.rating.label()))
        .collect();
    let mut draws = cfg.seed ^ 0x5A3B_1E57;
    let mut next_unit = || {
        draws = draws.wrapping_add(0x9E37_79B9_7F4A_7C15);
        unit(draws)
    };
    for i in (1..samples.len()).rev() {
        samples.swap(i, (next_unit() * (i + 1) as f64) as usize);
    }
    let cold: Vec<UserId> = scenario.cold_start_users();
    let align = cfg.align_cold_users && (cfg.use_scl || cfg.use_da) && !cold.is_empty();
    let bs = cfg.batch_size.min(samples.len());
    let mut stages: [Vec<f64>; 8] = Default::default();

    for b in 0..=batches {
        let lo = (b * bs) % (samples.len() - bs + 1);
        let chunk = &samples[lo..lo + bs];
        let src_docs: Vec<&[usize]> = chunk.iter().map(|(u, _, _)| views.source_doc(*u)).collect();
        let tgt_docs: Vec<&[usize]> = chunk
            .iter()
            .map(|(u, _, _)| {
                let aux = views.aux_doc(*u);
                let use_aux = cfg.aux_augment_prob > 0.0
                    && !aux.iter().all(|&t| t == 0)
                    && next_unit() < f64::from(cfg.aux_augment_prob);
                if use_aux {
                    aux
                } else {
                    views.target_doc(*u)
                }
            })
            .collect();
        let item_docs: Vec<&[usize]> = chunk.iter().map(|(_, i, _)| views.item_doc(*i)).collect();
        let labels: Vec<usize> = chunk.iter().map(|(_, _, l)| *l).collect();
        let picks: Vec<UserId> = if align {
            let k = (chunk.len() / 2).max(2).min(cold.len());
            let mut picks = cold.clone();
            for j in 0..k {
                let pick = j + (next_unit() * (cold.len() - j) as f64) as usize;
                picks.swap(j, pick);
            }
            picks.truncate(k);
            picks
        } else {
            Vec::new()
        };
        let k = picks.len();
        let align_src: Vec<&[usize]> = picks.iter().map(|u| views.source_doc(*u)).collect();
        let align_aux: Vec<&[usize]> = picks.iter().map(|u| views.aux_doc(*u)).collect();
        let empty: Vec<&[usize]> = picks.iter().map(|_| views.empty_doc()).collect();

        let step = trace::next_id();
        let t_step = trace::now_ns();
        let mut all_docs: Vec<&[usize]> = Vec::new();
        for d in [&src_docs, &tgt_docs, &item_docs, &align_src, &align_aux] {
            all_docs.extend_from_slice(d);
        }
        let ((), embed) = trace::timed("model.embed", step, || {
            drop(model.embed_docs(&all_docs));
        });
        let ((f_src, f_tgt, a_src, a_tgt), user_tower) = trace::timed("model.user_tower", step, || {
            let f_src = model.user_features(&src_docs, DomainSide::Source, true, &mut rng);
            let f_tgt = model.user_features(&tgt_docs, DomainSide::Target, true, &mut rng);
            let (a_src, a_tgt) = if k > 0 {
                (
                    Some(model.user_features(&align_src, DomainSide::Source, true, &mut rng)),
                    Some(model.user_features(&align_aux, DomainSide::Target, true, &mut rng)),
                )
            } else {
                (None, None)
            };
            (f_src, f_tgt, a_src, a_tgt)
        });
        let ((items, empty_items), item_tower) = trace::timed("model.item_tower", step, || {
            let items = model.item_features(&item_docs, true, &mut rng);
            let empty_items = (k > 0 && cfg.use_scl).then(|| model.item_features(&empty, true, &mut rng));
            (items, empty_items)
        });
        let (l_rating, rating_head) = trace::timed("model.rating_head", step, || {
            model
                .rating_logits(&f_tgt.combined, &items, true, &mut rng)
                .cross_entropy(&labels)
        });
        let (l_scl, projection) = trace::timed("model.projection", step, || {
            if !cfg.use_scl {
                return None;
            }
            let mut batch = SupConBatch::new();
            batch.push(model.project_pairs(&f_src.combined, &items, true, &mut rng), &labels);
            batch.push(model.project_pairs(&f_tgt.combined, &items, true, &mut rng), &labels);
            let mut l = batch.loss(cfg.temperature).scale(cfg.alpha);
            if let (Some(s), Some(t), Some(e)) = (&a_src, &a_tgt, &empty_items) {
                let ids: Vec<usize> = (0..k).collect();
                let mut align = SupConBatch::new();
                align.push(model.project_pairs(&s.combined, e, true, &mut rng), &ids);
                align.push(model.project_pairs(&t.combined, e, true, &mut rng), &ids);
                l = l.add(&align.loss(cfg.temperature).scale(cfg.alpha));
            }
            Some(l)
        });
        let (l_domain, domain_heads) = trace::timed("model.domain_heads", step, || {
            if !cfg.use_da {
                return None;
            }
            let mut pairs = vec![(&f_src, &f_tgt)];
            if let (Some(s), Some(t)) = (&a_src, &a_tgt) {
                pairs.push((s, t));
            }
            let mut total: Option<Tensor> = None;
            for (s, t) in pairs {
                let n = s.invariant.dims()[0];
                let mut dl = vec![DomainSide::Source.label(); n];
                dl.extend(std::iter::repeat_n(DomainSide::Target.label(), n));
                let inv = Tensor::concat_rows(&[&s.invariant, &t.invariant]);
                let spec = Tensor::concat_rows(&[&s.specific, &t.specific]);
                let l = model
                    .domain_logits_invariant(&inv, true, &mut rng)
                    .cross_entropy(&dl)
                    .add(&model.domain_logits_specific(&spec, true, &mut rng).cross_entropy(&dl))
                    .scale(cfg.beta);
                total = Some(match total {
                    Some(acc) => acc.add(&l),
                    None => l,
                });
            }
            total
        });
        // The loss sum is a few scalar graph nodes; it is timed with the
        // backward pass it feeds.
        let ((), backward) = trace::timed("autograd.backward", step, || {
            let mut loss = l_rating.scale(1.0);
            for extra in [l_scl, l_domain].into_iter().flatten() {
                loss = loss.add(&extra);
            }
            loss.backward();
        });
        let ((), optim) = trace::timed("optim.step", step, || {
            opt.step();
            opt.zero_grad();
        });
        trace::record_with_id(step, "train.step", 0, 0, t_step, trace::now_ns());
        if b > 0 {
            let parts = [
                embed,
                user_tower,
                item_tower,
                rating_head,
                projection,
                domain_heads,
                backward,
                optim,
            ];
            for (acc, v) in stages.iter_mut().zip(parts) {
                acc.push(v);
            }
        }
    }
    let m = |i: usize| median(&stages[i]);
    StepBreakdown {
        embed: m(0),
        user_tower: m(1),
        item_tower: m(2),
        rating_head: m(3),
        projection: m(4),
        domain_heads: m(5),
        backward: m(6),
        optim: m(7),
    }
}
