//! Forward-versus-backward DEM oracle.
//!
//! `DetectorErrorModel::build` reads every fault's signature off one
//! backward detector-sensitivity sweep. This suite rebuilds each DEM the
//! slow way — every elementary fault pushed forward through the round by
//! `propagate_fault`, merged in the same enumeration order — and demands
//! the two agree bit for bit, probabilities included.

use std::collections::HashMap;

use asyndrome::circuit::{
    propagate_fault, Check, DemError, DetectorErrorModel, FaultSite, NoiseModel, RoundCircuit,
    Schedule,
};
use asyndrome::codes::catalog::families;
use asyndrome::codes::{steane_code, StabilizerCode};
use asyndrome::core::industry::google_surface_schedule;
use asyndrome::core::{LowestDepthScheduler, Scheduler};
use asyndrome::pauli::{Pauli, SparsePauli};

/// The reference DEM: the original per-fault forward enumeration (checks in
/// schedule order, then idle locations tick by tick, then readouts).
fn forward_dem(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
) -> DetectorErrorModel {
    let circuit = RoundCircuit::new(code, schedule);
    let mut accumulator: HashMap<(Vec<usize>, Vec<usize>), f64> = HashMap::new();
    let mut add = |tick: usize, error: Vec<(usize, Pauli)>, probability: f64| {
        let effect = propagate_fault(&circuit, &FaultSite { tick, error: SparsePauli::new(error) });
        if probability <= 0.0 || (effect.detectors.is_empty() && effect.observables.is_empty()) {
            return;
        }
        let entry = accumulator.entry((effect.detectors, effect.observables)).or_insert(0.0);
        *entry = *entry * (1.0 - probability) + probability * (1.0 - *entry);
    };

    for check in schedule.checks() {
        let p = noise.check_error_probability(check.data, check.stabilizer);
        if p > 0.0 {
            let ancilla = circuit.ancilla_qubit(check.stabilizer);
            for pa in Pauli::ALL {
                for pd in Pauli::ALL {
                    if pa != Pauli::I || pd != Pauli::I {
                        add(check.tick, vec![(check.data, pd), (ancilla, pa)], p / 15.0);
                    }
                }
            }
        }
    }
    for tick in 1..=circuit.depth() {
        let layer = circuit.layer(tick);
        for data in 0..circuit.num_data() {
            let p = noise.data_idle_probability(data);
            if !layer.iter().any(|c| c.data == data) && p > 0.0 {
                for pauli in Pauli::ERRORS {
                    add(tick, vec![(data, pauli)], p / 3.0);
                }
            }
        }
        for stab in 0..circuit.num_stabilizers() {
            let (first, last) = circuit.ancilla_windows()[stab];
            let active = first != 0 && tick >= first && tick <= last;
            let p = noise.ancilla_idle_probability(stab);
            if active && !layer.iter().any(|c| c.stabilizer == stab) && p > 0.0 {
                for pauli in Pauli::ERRORS {
                    add(tick, vec![(circuit.ancilla_qubit(stab), pauli)], p / 3.0);
                }
            }
        }
    }
    for stab in 0..circuit.num_stabilizers() {
        add(
            circuit.depth(),
            vec![(circuit.ancilla_qubit(stab), Pauli::Z)],
            noise.measurement_probability(stab),
        );
    }

    let mut errors: Vec<DemError> = accumulator
        .into_iter()
        .map(|((detectors, observables), probability)| DemError {
            probability,
            detectors,
            observables,
        })
        .collect();
    errors.sort_by(|a, b| {
        a.detectors.cmp(&b.detectors).then_with(|| a.observables.cmp(&b.observables))
    });
    DetectorErrorModel::from_parts(circuit.num_detectors(), circuit.num_observables(), errors)
}

fn assert_bit_identical(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
    what: &str,
) {
    let fast = DetectorErrorModel::build(code, schedule, noise).unwrap();
    let reference = forward_dem(code, schedule, noise);
    assert_eq!(fast.num_detectors(), reference.num_detectors(), "{what}");
    assert_eq!(fast.num_observables(), reference.num_observables(), "{what}");
    assert_eq!(fast.errors().len(), reference.errors().len(), "{what}: mechanism count");
    for (a, b) in fast.errors().iter().zip(reference.errors()) {
        assert_eq!(a.detectors, b.detectors, "{what}");
        assert_eq!(a.observables, b.observables, "{what}");
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "{what}: {:?}/{:?} merged to {} instead of {}",
            a.detectors,
            a.observables,
            a.probability,
            b.probability
        );
    }
}

/// The schedules a code is checked under: trivial, lowest-depth and, when
/// the code has a planar layout, Google's zig-zag.
fn schedules(code: &StabilizerCode) -> Vec<(&'static str, Schedule)> {
    let mut out = vec![
        ("trivial", Schedule::trivial(code)),
        ("lowest-depth", LowestDepthScheduler::new().schedule(code).unwrap()),
    ];
    if let Ok(google) = google_surface_schedule(code) {
        out.push(("google", google));
    }
    out
}

/// Uniform, device-like, non-uniform and data-idling-off noise.
fn noise_models(code: &StabilizerCode) -> Vec<(&'static str, NoiseModel)> {
    let data = (0..code.num_qubits()).map(|q| 1.0 + 0.5 * (q % 3) as f64).collect();
    let ancilla = (0..code.stabilizers().len()).map(|s| 0.5 + 0.25 * (s % 4) as f64).collect();
    vec![
        ("scaled(1e-3)", NoiseModel::scaled(1e-3)),
        ("brisbane", NoiseModel::brisbane()),
        (
            "non-uniform",
            NoiseModel::brisbane().with_data_multipliers(data).with_ancilla_multipliers(ancilla),
        ),
        ("paper (no data idling)", NoiseModel::paper()),
    ]
}

/// Every catalog entry under the lowest-depth schedule at the device-like
/// noise model; entries of up to 45 qubits under every schedule, and those
/// of up to 25 qubits under every noise model too. (The forward oracle is
/// slow in a debug build: this subset of 100+ builds takes ~9 s on a
/// 2-core Xeon, against ~16 s for every combination.)
#[test]
fn backward_sweep_matches_forward_propagation_on_the_catalog() {
    let mut builds = 0;
    for family in families() {
        for entry in &family.entries {
            let code = &entry.code;
            for (schedule_name, schedule) in schedules(code) {
                if code.num_qubits() > 45 && schedule_name != "lowest-depth" {
                    continue;
                }
                for (noise_name, noise) in noise_models(code) {
                    if code.num_qubits() > 25 && noise_name != "brisbane" {
                        continue;
                    }
                    let what =
                        format!("{} / {schedule_name} / {noise_name}", entry.display_label());
                    assert_bit_identical(code, &schedule, &noise, &what);
                    builds += 1;
                }
            }
        }
    }
    assert!(builds >= 100, "only {builds} DEMs compared");
}

/// An unvalidated schedule whose layers reuse qubits: both derivations
/// apply checks sharing a tick in schedule order.
#[test]
fn shared_qubit_layers_follow_schedule_order() {
    let code = steane_code();
    let trivial = Schedule::trivial(&code);
    let squashed: Vec<Check> =
        trivial.checks().iter().map(|c| Check { tick: 1 + c.tick / 3, ..*c }).collect();
    let schedule = Schedule::new(code.num_qubits(), code.stabilizers().len(), squashed);
    assert!(schedule.validate(&code).is_err(), "the layers must share qubits");
    assert_bit_identical(&code, &schedule, &NoiseModel::brisbane(), "squashed steane");
}
