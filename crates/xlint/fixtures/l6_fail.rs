//! L6 failing fixture: both guard-drop shapes.

pub fn hold_nothing(s: &Shared) {
    let _ = s.m.lock();
    s.bump();
}

pub fn early_drop(s: &Shared) {
    let g = s.m.lock();
    drop(g);
    s.m.set(1);
}

pub fn dropped_ticket(s: &Shared) {
    let _ = s.gate.admit(1);
    s.bump();
}
