type node = int

type t =
  | Resistor of { name : string; n_plus : node; n_minus : node; resistance : float }
  | Capacitor of { name : string; n_plus : node; n_minus : node; capacitance : float }
  | Inductor of { name : string; n_plus : node; n_minus : node; inductance : float }
  | Voltage_source of { name : string; n_plus : node; n_minus : node; waveform : Waveform.t }
  | Current_source of { name : string; n_plus : node; n_minus : node; waveform : Waveform.t }
  | Diode of { name : string; anode : node; cathode : node; params : Diode.params }
  | Mosfet of { name : string; drain : node; gate : node; source : node; params : Mosfet.params }
  | Bjt of { name : string; collector : node; base : node; emitter : node; params : Bjt.params }
  | Vccs of {
      name : string;
      out_plus : node;
      out_minus : node;
      in_plus : node;
      in_minus : node;
      gm : float;
    }
  | Multiplier of {
      name : string;
      out_plus : node;
      out_minus : node;
      a_plus : node;
      a_minus : node;
      b_plus : node;
      b_minus : node;
      gain : float;
    }

let name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Voltage_source { name; _ }
  | Current_source { name; _ }
  | Diode { name; _ }
  | Mosfet { name; _ }
  | Bjt { name; _ }
  | Vccs { name; _ }
  | Multiplier { name; _ } ->
      name

let needs_branch_current = function
  | Voltage_source _ | Inductor _ -> true
  | Resistor _ | Capacitor _ | Current_source _ | Diode _ | Mosfet _ | Bjt _ | Vccs _
  | Multiplier _ ->
      false

let is_linear = function
  | Resistor _ | Capacitor _ | Inductor _ | Voltage_source _ | Current_source _ | Vccs _ ->
      true
  | Diode _ | Mosfet _ | Bjt _ | Multiplier _ -> false

let nodes = function
  | Resistor { n_plus; n_minus; _ }
  | Capacitor { n_plus; n_minus; _ }
  | Inductor { n_plus; n_minus; _ }
  | Voltage_source { n_plus; n_minus; _ }
  | Current_source { n_plus; n_minus; _ } ->
      [ n_plus; n_minus ]
  | Diode { anode; cathode; _ } -> [ anode; cathode ]
  | Mosfet { drain; gate; source; _ } -> [ drain; gate; source ]
  | Bjt { collector; base; emitter; _ } -> [ collector; base; emitter ]
  | Vccs { out_plus; out_minus; in_plus; in_minus; _ } ->
      [ out_plus; out_minus; in_plus; in_minus ]
  | Multiplier { out_plus; out_minus; a_plus; a_minus; b_plus; b_minus; _ } ->
      [ out_plus; out_minus; a_plus; a_minus; b_plus; b_minus ]
