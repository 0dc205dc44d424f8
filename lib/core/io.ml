module User = struct
  type obs = {
    mutable from_server : Msg.t;
    mutable from_world : Msg.t;
    mutable round : int;
  }
  type act = { to_server : Msg.t; to_world : Msg.t; halt : bool }

  let silent = { to_server = Msg.Silence; to_world = Msg.Silence; halt = false }
  let halt_act = { silent with halt = true }
  let say_server m = { silent with to_server = m }
  let say_world m = { silent with to_world = m }
  let unhalted act = if act.halt then { act with halt = false } else act
end

module Server = struct
  type obs = { mutable from_user : Msg.t; mutable from_world : Msg.t }
  type act = { to_user : Msg.t; to_world : Msg.t }

  let silent = { to_user = Msg.Silence; to_world = Msg.Silence }
  let say_user m = { silent with to_user = m }
  let say_world m = { silent with to_world = m }
end

module World = struct
  type obs = { mutable from_user : Msg.t; mutable from_server : Msg.t }
  type act = { to_user : Msg.t; to_server : Msg.t }

  let silent = { to_user = Msg.Silence; to_server = Msg.Silence }
  let say_user m = { silent with to_user = m }
  let say_server m = { silent with to_server = m }
  let broadcast m = { to_user = m; to_server = m }
end
