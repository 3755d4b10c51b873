int main() {
  int i;
  i = 0;
  while (1) {
    i = i + 1;
  }
  return i;
}
