//! Fixture: 3-lock ABBA cycle spanning two fns — f1 holds l1 into
//! step2 (which takes l2 then l3) while f3 takes l3 then l1.

pub struct A {
    l1: Mutex<u32>,
    l2: Mutex<u32>,
    l3: Mutex<u32>,
}

impl A {
    fn f1(&self) {
        let g1 = self.l1.lock().unwrap();
        self.step2();
        drop(g1);
    }

    fn step2(&self) {
        let g2 = self.l2.lock().unwrap();
        let g3 = self.l3.lock().unwrap();
        drop(g3);
        drop(g2);
    }

    fn f3(&self) {
        let g3 = self.l3.lock().unwrap();
        let g1 = self
            .l1
            .lock()
            .unwrap();
        drop(g1);
        drop(g3);
    }
}
