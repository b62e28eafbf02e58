//! Clifford propagation of Pauli faults through a scheduled
//! syndrome-measurement round.

use asynd_codes::StabilizerCode;
use asynd_pauli::{Pauli, PauliString, SparsePauli};

use crate::{Check, Schedule};

/// A single Pauli fault injected into the round.
///
/// The error acts on the combined register (data qubits `0..n`, ancilla of
/// stabilizer `s` at index `n + s`) and is inserted *after* the gate layer
/// of `tick` (tick 0 means "before the round starts").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// The tick after which the error occurs.
    pub tick: usize,
    /// The Pauli error on the combined data + ancilla register.
    pub error: SparsePauli,
}

/// The effect of a fault on the round's detectors and logical observables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultEffect {
    /// Indices of flipped detectors. Detectors `0..r` are the round-1
    /// ancilla readouts; detectors `r..2r` are the round-1 ⊕ round-2
    /// syndrome comparisons.
    pub detectors: Vec<usize>,
    /// Indices of flipped logical observables. Observables `0..k` are the
    /// logical-Z readouts (flipped by logical X errors); observables
    /// `k..2k` are the logical-X readouts (flipped by logical Z errors).
    pub observables: Vec<usize>,
}

/// A scheduled syndrome-measurement round in executable form: the per-tick
/// gate layers plus the ancilla activity windows, ready for fault
/// propagation and fault-site enumeration.
///
/// Every check is modelled as a controlled-σ gate with the ancilla as
/// control; ancillas are prepared in `|+⟩` and read out in the X basis, so
/// an X-type error on the ancilla spreads the stabilizer's Pauli onto every
/// data qubit checked later, while a Z-type error flips the readout (the
/// hook-error structure of the paper's §3.1).
#[derive(Debug, Clone)]
pub struct RoundCircuit {
    num_data: usize,
    num_stabilizers: usize,
    num_logicals: usize,
    depth: usize,
    /// `layers[t]` holds the checks executing at tick `t + 1`.
    layers: Vec<Vec<Check>>,
    /// Per-stabilizer `(first, last)` tick of ancilla activity.
    windows: Vec<(usize, usize)>,
    stabilizers: Vec<SparsePauli>,
    logical_x: Vec<SparsePauli>,
    logical_z: Vec<SparsePauli>,
}

impl RoundCircuit {
    /// Compiles a schedule against its code.
    ///
    /// The schedule should already have been validated with
    /// [`Schedule::validate`]; this constructor only organises it per tick.
    ///
    /// # Panics
    ///
    /// Panics if a check has tick 0 or indexes a data qubit or stabilizer
    /// the code does not have ([`DetectorErrorModel::build`] rejects such
    /// schedules with a typed error instead).
    ///
    /// [`DetectorErrorModel::build`]: crate::DetectorErrorModel::build
    pub fn new(code: &StabilizerCode, schedule: &Schedule) -> Self {
        let depth = schedule.depth();
        let mut layers = vec![Vec::new(); depth];
        let mut windows = vec![(0, 0); code.stabilizers().len()];
        for check in schedule.checks() {
            layers[check.tick - 1].push(*check);
            let window = &mut windows[check.stabilizer];
            if window.0 == 0 || check.tick < window.0 {
                window.0 = check.tick;
            }
            window.1 = window.1.max(check.tick);
        }
        RoundCircuit {
            num_data: code.num_qubits(),
            num_stabilizers: code.stabilizers().len(),
            num_logicals: code.num_logicals(),
            depth,
            layers,
            windows,
            stabilizers: code.stabilizers().to_vec(),
            logical_x: code.logical_x().to_vec(),
            logical_z: code.logical_z().to_vec(),
        }
    }

    /// Number of data qubits.
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Number of stabilizers (= ancillas).
    pub fn num_stabilizers(&self) -> usize {
        self.num_stabilizers
    }

    /// Number of logical qubits.
    pub fn num_logicals(&self) -> usize {
        self.num_logicals
    }

    /// Total register size (data + ancilla qubits).
    pub fn num_qubits(&self) -> usize {
        self.num_data + self.num_stabilizers
    }

    /// Circuit depth in ticks.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of detectors of the two-round evaluation circuit.
    pub fn num_detectors(&self) -> usize {
        2 * self.num_stabilizers
    }

    /// Number of logical observables (logical-Z readouts then logical-X
    /// readouts).
    pub fn num_observables(&self) -> usize {
        2 * self.num_logicals
    }

    /// The register index of the ancilla measuring `stabilizer`.
    pub fn ancilla_qubit(&self, stabilizer: usize) -> usize {
        self.num_data + stabilizer
    }

    /// The checks executing at 1-based `tick`.
    pub fn layer(&self, tick: usize) -> &[Check] {
        &self.layers[tick - 1]
    }

    /// The `(first, last)` activity window of each ancilla; `(0, 0)` for a
    /// stabilizer with no checks.
    pub fn ancilla_windows(&self) -> &[(usize, usize)] {
        &self.windows
    }
}

/// Propagates a single Pauli fault forward through the rest of the round
/// and reports which detectors and observables it flips: the oracle for
/// [`DetectorErrorModel::build`].
///
/// The builder never calls this. It reads every fault's signature off one
/// backward detector-sensitivity sweep; this function walks the circuit
/// forward, gate by gate, on a dense Pauli string. The two are independent
/// derivations of the same linear map, and the test suites check that they
/// agree fault by fault and DEM by DEM.
///
/// The propagation rules for a controlled-σ check (ancilla control, data
/// target) are: an X component on the ancilla multiplies σ onto the data
/// qubit; a data error anticommuting with σ multiplies Z onto the ancilla.
/// Checks sharing a tick are applied in schedule order. At readout, an
/// ancilla error with a Z component flips the measurement.
///
/// [`DetectorErrorModel::build`]: crate::DetectorErrorModel::build
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::{propagate_fault, FaultSite, RoundCircuit, Schedule};
/// use asynd_pauli::{Pauli, SparsePauli};
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// let circuit = RoundCircuit::new(&code, &schedule);
/// // An X error on data qubit 0 before the round is caught by the round-1
/// // readout of the Z-stabilizer containing qubit 0; the round-2 comparison
/// // stays silent because the error is present in both rounds.
/// let fault = FaultSite { tick: 0, error: SparsePauli::new(vec![(0, Pauli::X)]) };
/// let effect = propagate_fault(&circuit, &fault);
/// assert_eq!(effect.detectors.len(), 1);
/// ```
pub fn propagate_fault(circuit: &RoundCircuit, site: &FaultSite) -> FaultEffect {
    let total = circuit.num_qubits();
    let n = circuit.num_data();
    let mut error = PauliString::identity(total);
    for &(q, p) in site.error.entries() {
        error.mul_assign_single(q, p);
    }

    // Propagate through the remaining gate layers.
    for tick in site.tick + 1..=circuit.depth() {
        for check in circuit.layer(tick) {
            let ancilla = circuit.ancilla_qubit(check.stabilizer);
            let ancilla_error = error.get(ancilla);
            let data_error = error.get(check.data);
            if ancilla_error.has_x() {
                error.mul_assign_single(check.data, check.pauli);
            }
            if data_error != Pauli::I && data_error.anticommutes_with(check.pauli) {
                error.mul_assign_single(ancilla, Pauli::Z);
            }
        }
    }

    // Round-1 readout flips: Z component on the ancilla at measurement time.
    let r = circuit.num_stabilizers();
    let mut detectors = Vec::new();
    let mut measurement_flip = vec![false; r];
    for (s, flip) in measurement_flip.iter_mut().enumerate() {
        if error.get(circuit.ancilla_qubit(s)).has_z() {
            *flip = true;
            detectors.push(s);
        }
    }

    // Residual data error at the end of the round.
    let residual = error.truncated(n);

    // Round-2 detectors compare the (ideal) second-round syndrome with the
    // first-round readout.
    for (s, stab) in circuit.stabilizers.iter().enumerate() {
        let syndrome = stab.to_dense(n).anticommutes_with(&residual);
        if syndrome != measurement_flip[s] {
            detectors.push(r + s);
        }
    }

    // Observable flips from the residual error.
    let mut observables = Vec::new();
    for (i, lz) in circuit.logical_z.iter().enumerate() {
        if lz.to_dense(n).anticommutes_with(&residual) {
            observables.push(i);
        }
    }
    let k = circuit.num_logicals();
    for (i, lx) in circuit.logical_x.iter().enumerate() {
        if lx.to_dense(n).anticommutes_with(&residual) {
            observables.push(k + i);
        }
    }
    detectors.sort_unstable();
    FaultEffect { detectors, observables }
}

/// The detector and observable signature of every single-qubit Pauli at
/// every tick boundary of a round, from one backward sweep.
///
/// Clifford propagation is linear over GF(2), so the signature of any fault
/// is the XOR of the signatures of its X and Z components. The table holds
/// one bitset per `(tick, qubit, X|Z)`: bits `0..2r` are the detectors and
/// bits `2r..2r + 2k` the observables, both in [`FaultEffect`] order. Tick
/// `t` means "after the gate layer of tick `t`", as in [`FaultSite`].
///
/// The sweep starts from the end-of-round signatures and steps back through
/// each layer's checks in reverse, applying the transpose of each
/// controlled-σ gate: `mask(X_a) ^= mask(σ_d)`, and `mask(P_d) ^= mask(Z_a)`
/// when `P` anticommutes with σ. Reversing within a layer reproduces
/// [`propagate_fault`]'s sequential semantics even when two checks of one
/// tick share a qubit.
pub(crate) struct SensitivityTable {
    num_qubits: usize,
    num_detectors: usize,
    words: usize,
    /// `(depth + 1) × num_qubits × {X, Z}` masks of `words` words each.
    masks: Vec<u64>,
}

impl SensitivityTable {
    /// Runs the backward sweep over `circuit`.
    pub(crate) fn new(circuit: &RoundCircuit) -> Self {
        let n = circuit.num_data();
        let r = circuit.num_stabilizers();
        let k = circuit.num_logicals();
        let num_qubits = circuit.num_qubits();
        let num_bits = circuit.num_detectors() + circuit.num_observables();
        let words = num_bits.div_ceil(64);
        let stride = num_qubits * 2 * words;
        let depth = circuit.depth();
        let mut masks = vec![0u64; (depth + 1) * stride];

        // End of round: a Z on ancilla s flips its readout s and therefore
        // the comparison r + s; a residual data Pauli flips the comparison
        // of every stabilizer and the readout of every logical it
        // anticommutes with.
        let end = &mut masks[depth * stride..];
        let mut flip = |qubit: usize, z: bool, bit: usize| {
            end[(2 * qubit + usize::from(z)) * words + bit / 64] ^= 1 << (bit % 64);
        };
        for s in 0..r {
            flip(n + s, true, s);
            flip(n + s, true, r + s);
        }
        let operators = circuit.stabilizers.iter().enumerate().map(|(s, op)| (r + s, op));
        let logical_z = circuit.logical_z.iter().enumerate().map(|(i, op)| (2 * r + i, op));
        let logical_x = circuit.logical_x.iter().enumerate().map(|(i, op)| (2 * r + k + i, op));
        for (bit, operator) in operators.chain(logical_z).chain(logical_x) {
            for &(q, p) in operator.entries() {
                // X anticommutes with p iff p has a Z component, and vice versa.
                if p.has_z() {
                    flip(q, false, bit);
                }
                if p.has_x() {
                    flip(q, true, bit);
                }
            }
        }

        // Step back through each layer, last check first, applying each
        // gate's transpose; the σ_d masks are read before the data update.
        for tick in (1..=depth).rev() {
            let (earlier, later) = masks.split_at_mut(tick * stride);
            let table = &mut earlier[(tick - 1) * stride..];
            table.copy_from_slice(&later[..stride]);
            for check in circuit.layer(tick).iter().rev() {
                let ancilla = circuit.ancilla_qubit(check.stabilizer);
                let (ax, az) = (2 * ancilla * words, (2 * ancilla + 1) * words);
                let (dx, dz) = (2 * check.data * words, (2 * check.data + 1) * words);
                let (sx, sz) = check.pauli.xz();
                for w in 0..words {
                    let (x_mask, z_mask) = (table[dx + w], table[dz + w]);
                    if sx {
                        table[ax + w] ^= x_mask;
                        table[dz + w] ^= table[az + w];
                    }
                    if sz {
                        table[ax + w] ^= z_mask;
                        table[dx + w] ^= table[az + w];
                    }
                }
            }
        }
        SensitivityTable { num_qubits, num_detectors: circuit.num_detectors(), words, masks }
    }

    /// Words per signature mask.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// XORs the signature of `pauli` on `qubit` after tick `tick` into
    /// `mask`.
    pub(crate) fn accumulate(&self, tick: usize, qubit: usize, pauli: Pauli, mask: &mut [u64]) {
        let (x, z) = pauli.xz();
        let base = (tick * self.num_qubits + qubit) * 2 * self.words;
        for (component, present) in [(0, x), (1, z)] {
            if present {
                let start = base + component * self.words;
                for (out, &word) in mask.iter_mut().zip(&self.masks[start..start + self.words]) {
                    *out ^= word;
                }
            }
        }
    }

    /// Splits a signature mask into sorted detector and observable lists.
    pub(crate) fn effect(&self, mask: &[u64]) -> FaultEffect {
        let mut effect = FaultEffect::default();
        for (w, &word) in mask.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = 64 * w + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if bit < self.num_detectors {
                    effect.detectors.push(bit);
                } else {
                    effect.observables.push(bit - self.num_detectors);
                }
            }
        }
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_codes::{rotated_surface_code, steane_code};

    /// The fault's signature by forward propagation, asserted equal to the
    /// sensitivity-table lookup, so every expectation below holds for both.
    fn effect(circuit: &RoundCircuit, site: &FaultSite) -> FaultEffect {
        let forward = propagate_fault(circuit, site);
        let table = SensitivityTable::new(circuit);
        let mut mask = vec![0; table.words()];
        for &(q, p) in site.error.entries() {
            table.accumulate(site.tick, q, p, &mut mask);
        }
        assert_eq!(table.effect(&mask), forward, "sensitivity table disagrees with propagation");
        forward
    }

    fn single(circuit: &RoundCircuit, tick: usize, qubit: usize, pauli: Pauli) -> FaultEffect {
        effect(circuit, &FaultSite { tick, error: SparsePauli::new(vec![(qubit, pauli)]) })
    }

    #[test]
    fn pre_round_data_error_triggers_round_one_only() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule);
        let effect = single(&circuit, 0, 0, Pauli::X);
        let z_stabs_containing_0: Vec<usize> = code
            .stabilizers()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.get(0) == Pauli::Z)
            .map(|(i, _)| i)
            .collect();
        // The error precedes the whole round, so it is caught by the round-1
        // readouts; the round-2 comparisons see the same syndrome twice and
        // stay silent.
        assert_eq!(effect.detectors, z_stabs_containing_0);
        assert!(effect.observables.is_empty(), "single X error is not logical");
    }

    #[test]
    fn post_round_error_is_invisible_to_round_one() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule);
        let depth = circuit.depth();
        // Error after the last tick: only the round-2 comparison can see it.
        let effect = single(&circuit, depth, 0, Pauli::X);
        let r = code.stabilizers().len();
        assert!(effect.detectors.iter().all(|&d| d >= r));
        assert!(!effect.detectors.is_empty());
    }

    #[test]
    fn measurement_basis_error_on_ancilla_flips_only_round_one() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule);
        let depth = circuit.depth();
        // Z on an ancilla right before readout: flips the round-1 outcome but
        // leaves no residual data error, so the round-2 comparison also fires
        // (syndrome 0 vs readout 1) — signature {s, r+s}.
        let effect = single(&circuit, depth, circuit.ancilla_qubit(0), Pauli::Z);
        assert_eq!(effect.detectors, vec![0, code.stabilizers().len()]);
        assert!(effect.observables.is_empty());
    }

    #[test]
    fn hook_error_spreads_to_later_data_qubits() {
        let code = rotated_surface_code(3);
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule);
        // Pick a weight-4 stabilizer and inject an X error on its ancilla
        // after its second check: the X must spread the stabilizer's Pauli to
        // the remaining two data qubits.
        let (stab_idx, stab) = code
            .stabilizers()
            .iter()
            .enumerate()
            .find(|(_, s)| s.weight() == 4)
            .expect("surface code has weight-4 stabilizers");
        let mut ticks: Vec<(usize, usize)> = stab
            .entries()
            .iter()
            .map(|&(q, _)| (schedule.tick_of(stab_idx, q).unwrap(), q))
            .collect();
        ticks.sort_unstable();
        let mid_tick = ticks[1].0;
        let late_qubits: Vec<usize> =
            ticks.iter().filter(|&&(t, _)| t > mid_tick).map(|&(_, q)| q).collect();
        assert_eq!(late_qubits.len(), 2);
        let effect = single(&circuit, mid_tick, circuit.ancilla_qubit(stab_idx), Pauli::X);
        // The residual error on the two late data qubits must be visible to
        // *other* stabilizers (in round 1 if their checks run after the error
        // appears, otherwise in the round-2 comparison), while the hooked
        // stabilizer itself sees an even overlap and stays silent.
        let r = code.stabilizers().len();
        let implicated: Vec<usize> = effect.detectors.iter().map(|&d| d % r).collect();
        assert!(!implicated.is_empty(), "hook error must leave a residual signature");
        for &s in &implicated {
            assert_ne!(s, stab_idx, "the hooked stabilizer itself sees an even overlap");
        }
    }

    #[test]
    fn hook_error_at_start_is_harmless() {
        // An X error on the ancilla before any check spreads to the full
        // stabilizer support — i.e. it becomes the stabilizer itself and has
        // no effect on detectors or observables.
        let code = rotated_surface_code(3);
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule);
        let (stab_idx, _) =
            code.stabilizers().iter().enumerate().find(|(_, s)| s.weight() == 4).unwrap();
        let effect = single(&circuit, 0, circuit.ancilla_qubit(stab_idx), Pauli::X);
        assert!(effect.detectors.is_empty());
        assert!(effect.observables.is_empty());
    }

    #[test]
    fn logical_error_flips_observable() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule);
        // Apply a full logical X operator before the round: no detector
        // fires, but the logical-Z observable flips.
        let logical = code.logical_x()[0].clone();
        let effect = effect(&circuit, &FaultSite { tick: 0, error: logical });
        assert!(effect.detectors.is_empty());
        // A logical X error anticommutes with Z̄ and therefore flips the
        // logical-Z readout, which is observable index 0.
        assert_eq!(effect.observables, vec![0]);
    }

    #[test]
    fn ancilla_windows_track_activity() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule);
        assert_eq!(circuit.ancilla_windows().len(), 6);
        for (s, &(first, last)) in circuit.ancilla_windows().iter().enumerate() {
            let ticks: Vec<usize> =
                schedule.checks().iter().filter(|c| c.stabilizer == s).map(|c| c.tick).collect();
            assert_eq!(first, *ticks.iter().min().unwrap());
            assert_eq!(last, *ticks.iter().max().unwrap());
        }
    }
}
