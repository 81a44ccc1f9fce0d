//! Output checkers. Each one tests a property the method must have, or
//! recomputes a result apart from the program; none compares against a
//! stored copy of earlier output. A checker returns `Err(reason)` on the
//! first violation it finds.

use om_data::types::ItemId;

/// Scores are expected star ratings: finite and within [1, 5].
pub fn check_star(score: f32) -> Result<(), String> {
    if score.is_finite() && (1.0..=5.0).contains(&score) {
        Ok(())
    } else {
        Err(format!("score {score} is not a finite star rating in [1, 5]"))
    }
}

/// A served top-K list: exactly `min(k, catalogue)` entries, distinct ids
/// that are all in the catalogue, star-range scores that never increase
/// down the list.
pub fn check_topk(
    top: &[(ItemId, f32)],
    k: usize,
    catalogue: usize,
    in_catalogue: impl Fn(ItemId) -> bool,
) -> Result<(), String> {
    let want = k.min(catalogue);
    if top.len() != want {
        return Err(format!("top-K has {} entries, want min(k={k}, N={catalogue}) = {want}", top.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (pos, &(id, s)) in top.iter().enumerate() {
        check_star(s).map_err(|e| format!("position {pos}: {e}"))?;
        if !in_catalogue(id) {
            return Err(format!("position {pos}: item {} is not in the catalogue", id.0));
        }
        if !seen.insert(id) {
            return Err(format!("position {pos}: item {} appears twice", id.0));
        }
        if pos > 0 && s > top[pos - 1].1 {
            return Err(format!("position {pos}: score {s} rises above {}", top[pos - 1].1));
        }
    }
    Ok(())
}

/// Compare a served top-K with the benchmark's own full sort of the same
/// user's scores over the whole catalogue (`ids[i]` scored `scores[i]`).
/// Position by position the scores must agree within `tol`; ids may differ
/// only where the two scores at that position tie within `tol`, and every
/// served id must carry its own full-sort score.
pub fn check_against_full_sort(
    top: &[(ItemId, f32)],
    ids: &[ItemId],
    scores: &[f32],
    tol: f32,
) -> Result<(), String> {
    if ids.len() != scores.len() {
        return Err(format!("{} ids but {} scores", ids.len(), scores.len()));
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    if top.len() > order.len() {
        return Err(format!("top-K of {} from a catalogue of {}", top.len(), order.len()));
    }
    let own: std::collections::BTreeMap<ItemId, f32> =
        ids.iter().copied().zip(scores.iter().copied()).collect();
    for (pos, (&(id, s), &want)) in top.iter().zip(&order).enumerate() {
        let want_score = scores[want];
        if (s - want_score).abs() > tol {
            return Err(format!(
                "position {pos}: served score {s} vs full-sort score {want_score}"
            ));
        }
        match own.get(&id) {
            Some(&full) if (full - s).abs() <= tol => {}
            Some(&full) => {
                return Err(format!("position {pos}: item {} served at {s}, scores {full}", id.0))
            }
            None => return Err(format!("position {pos}: item {} not in the catalogue", id.0)),
        }
    }
    Ok(())
}

/// Every prediction is a finite star rating.
pub fn check_predictions(preds: &[f32]) -> Result<(), String> {
    for (i, &p) in preds.iter().enumerate() {
        check_star(p).map_err(|e| format!("prediction {i}: {e}"))?;
    }
    Ok(())
}

/// RMSE and MAE of `preds` against `gold`, recomputed in f64.
pub fn rmse_mae(preds: &[f32], gold: &[f32]) -> (f64, f64) {
    assert_eq!(preds.len(), gold.len(), "one gold rating per prediction");
    assert!(!preds.is_empty(), "no predictions");
    let n = preds.len() as f64;
    let (mut sq, mut abs) = (0.0f64, 0.0f64);
    for (&p, &y) in preds.iter().zip(gold) {
        let d = f64::from(p) - f64::from(y);
        sq += d * d;
        abs += d.abs();
    }
    ((sq / n).sqrt(), abs / n)
}

/// The program's `evaluate` must agree with RMSE/MAE recomputed from its
/// own `predict` outputs within `tol`, and RMSE can never be below MAE.
pub fn check_eval(
    preds: &[f32],
    gold: &[f32],
    eval_rmse: f32,
    eval_mae: f32,
    tol: f64,
) -> Result<(), String> {
    let (rmse, mae) = rmse_mae(preds, gold);
    if (rmse - f64::from(eval_rmse)).abs() > tol {
        return Err(format!("evaluate RMSE {eval_rmse} vs recomputed {rmse}"));
    }
    if (mae - f64::from(eval_mae)).abs() > tol {
        return Err(format!("evaluate MAE {eval_mae} vs recomputed {mae}"));
    }
    if rmse + 1e-12 < mae {
        return Err(format!("RMSE {rmse} below MAE {mae}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    fn top(v: &[(u32, f32)]) -> Vec<(ItemId, f32)> {
        v.iter().map(|&(i, s)| (ItemId(i), s)).collect()
    }

    #[test]
    fn accepts_a_well_formed_topk() {
        let t = top(&[(3, 4.5), (1, 4.5), (0, 2.0)]);
        assert!(check_topk(&t, 3, 4, |i| i.0 < 4).is_ok());
        // k larger than the catalogue: all N items.
        assert!(check_topk(&t, 10, 3, |i| i.0 < 4).is_ok());
    }

    #[test]
    fn rejects_a_misordered_topk() {
        let t = top(&[(3, 2.0), (1, 4.5)]);
        let err = check_topk(&t, 2, 4, |_| true).unwrap_err();
        assert!(err.contains("rises"), "{err}");
    }

    #[test]
    fn rejects_a_duplicated_topk() {
        let t = top(&[(3, 4.0), (3, 4.0)]);
        let err = check_topk(&t, 2, 4, |_| true).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn rejects_wrong_length_and_foreign_ids() {
        assert!(check_topk(&top(&[(0, 3.0)]), 2, 4, |_| true).is_err());
        assert!(check_topk(&top(&[(9, 3.0)]), 1, 4, |i| i.0 < 4).is_err());
    }

    #[test]
    fn rejects_scores_outside_the_star_range() {
        for bad in [0.99f32, 5.01, f32::NAN, f32::INFINITY] {
            assert!(check_topk(&top(&[(0, bad)]), 1, 1, |_| true).is_err(), "{bad}");
            assert!(check_predictions(&[3.0, bad]).is_err(), "{bad}");
        }
        assert!(check_predictions(&[1.0, 5.0, 3.3]).is_ok());
    }

    #[test]
    fn full_sort_agreement_allows_only_tied_swaps() {
        let all = ids(&[10, 11, 12, 13]);
        let scores = [2.0f32, 4.0, 4.0, 3.0];
        // Exact order, and the tie at 4.0 in either order.
        assert!(check_against_full_sort(&top(&[(11, 4.0), (12, 4.0)]), &all, &scores, 1e-6).is_ok());
        assert!(check_against_full_sort(&top(&[(12, 4.0), (11, 4.0)]), &all, &scores, 1e-6).is_ok());
        // Skipping the second-best item is caught.
        assert!(check_against_full_sort(&top(&[(11, 4.0), (13, 3.0)]), &all, &scores, 1e-6).is_err());
        // A served score that is not the item's own score is caught.
        assert!(check_against_full_sort(&top(&[(13, 4.0)]), &all, &scores, 1e-6).is_err());
    }

    #[test]
    fn eval_check_matches_a_hand_computed_case() {
        // Errors 1, -1, 2, 0 → RMSE sqrt(6/4) = 1.224745, MAE 4/4 = 1.
        let preds = [4.0f32, 2.0, 5.0, 3.0];
        let gold = [3.0f32, 3.0, 3.0, 3.0];
        let (rmse, mae) = rmse_mae(&preds, &gold);
        assert!((rmse - 1.5f64.sqrt()).abs() < 1e-12);
        assert!((mae - 1.0).abs() < 1e-12);
        assert!(check_eval(&preds, &gold, 1.224_745, 1.0, 1e-5).is_ok());
        // An RMSE that disagrees with the hand computation is rejected.
        let err = check_eval(&preds, &gold, 1.25, 1.0, 1e-5).unwrap_err();
        assert!(err.contains("RMSE"), "{err}");
        assert!(check_eval(&preds, &gold, 1.224_745, 0.9, 1e-5).is_err());
    }
}
