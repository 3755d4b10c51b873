int main() {
  int x;
  x = 1 @ 2;
  return x;
}
